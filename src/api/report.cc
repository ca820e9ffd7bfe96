#include "api/report.hh"

#include <sstream>

#include "common/table.hh"

namespace sc::api {

std::string
breakdownStr(const sim::CycleBreakdown &breakdown)
{
    std::ostringstream os;
    bool first = true;
    for (unsigned i = 0;
         i < static_cast<unsigned>(sim::CycleClass::NumClasses); ++i) {
        const auto cls = static_cast<sim::CycleClass>(i);
        if (!first)
            os << " | ";
        first = false;
        os << sim::cycleClassName(cls) << " "
           << Table::num(100.0 * breakdown.fraction(cls), 1) << "%";
    }
    return os.str();
}

namespace {

/** Stable machine-readable key for a cycle class (the display names
 *  from cycleClassName carry punctuation and spaces). */
const char *
cycleClassKey(sim::CycleClass cls)
{
    switch (cls) {
      case sim::CycleClass::Cache:
        return "cache";
      case sim::CycleClass::Mispredict:
        return "mispredict";
      case sim::CycleClass::OtherCompute:
        return "other_compute";
      case sim::CycleClass::Intersection:
        return "intersection";
      default:
        return "unknown";
    }
}

} // namespace

JsonValue
jsonValue(const sim::CycleBreakdown &breakdown)
{
    JsonValue out = JsonValue::object();
    for (unsigned i = 0;
         i < static_cast<unsigned>(sim::CycleClass::NumClasses); ++i) {
        const auto cls = static_cast<sim::CycleClass>(i);
        out.set(cycleClassKey(cls),
                JsonValue::number(std::uint64_t{breakdown[cls]}));
    }
    return out;
}

JsonValue
jsonValue(const TraceStats &trace)
{
    JsonValue out = JsonValue::object();
    out.set("events", JsonValue::number(std::uint64_t{trace.events}));
    out.set("arena_bytes",
            JsonValue::number(std::uint64_t{trace.arenaBytes}));
    out.set("bytecode_bytes",
            JsonValue::number(std::uint64_t{trace.bytecodeBytes}));
    out.set("replay_mode", JsonValue::str(trace.replayMode));
    out.set("trace_cache_hit", JsonValue::boolean(trace.traceCacheHit));
    out.set("capture_seconds", JsonValue::number(trace.captureSeconds));
    out.set("replay_seconds", JsonValue::number(trace.replaySeconds));
    return out;
}

JsonValue
jsonValue(const SubstrateResult &result)
{
    JsonValue out = JsonValue::object();
    out.set("substrate", JsonValue::str(result.substrate));
    out.set("cycles", JsonValue::number(std::uint64_t{result.cycles}));
    out.set("breakdown", jsonValue(result.breakdown));
    return out;
}

JsonValue
jsonValue(const RunResult &result)
{
    JsonValue out = JsonValue::object();
    out.set("result",
            JsonValue::number(std::uint64_t{result.functionalResult}));
    out.set("cycles", JsonValue::number(std::uint64_t{result.cycles}));
    out.set("breakdown", jsonValue(result.breakdown));
    if (!result.trace.replayMode.empty())
        out.set("trace", jsonValue(result.trace));
    return out;
}

JsonValue
jsonValue(const Comparison &comparison)
{
    JsonValue out = JsonValue::object();
    out.set("result", JsonValue::number(
                          std::uint64_t{comparison.functionalResult}));
    out.set("cpu", jsonValue(comparison.baseline));
    out.set("sparsecore", jsonValue(comparison.accelerated));
    out.set("speedup", JsonValue::number(comparison.speedup()));
    if (!comparison.trace.replayMode.empty())
        out.set("trace", jsonValue(comparison.trace));
    return out;
}

std::string
Comparison::str() const
{
    std::ostringstream os;
    os << "result: " << functionalResult << "\n";
    os << baseline.substrate << ": " << baseline.cycles
       << " cycles  [" << breakdownStr(baseline.breakdown) << "]\n";
    os << accelerated.substrate << ": " << accelerated.cycles
       << " cycles  [" << breakdownStr(accelerated.breakdown) << "]\n";
    os << "speedup: " << Table::speedup(speedup()) << "\n";
    if (trace.events) {
        os << "trace: " << trace.events << " events, "
           << trace.arenaBytes << " arena bytes, "
           << trace.bytecodeBytes << " code bytes, ";
        if (trace.traceCacheHit)
            os << "capture skipped (store hit)";
        else
            os << "capture "
               << Table::num(trace.captureSeconds * 1e3, 1) << " ms";
        os << ", replay " << Table::num(trace.replaySeconds * 1e3, 1)
           << " ms";
        if (!trace.replayMode.empty())
            os << " (" << trace.replayMode << ")";
        os << "\n";
    }
    return os.str();
}

} // namespace sc::api
