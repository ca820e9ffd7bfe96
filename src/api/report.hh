/**
 * @file
 * Result/report types of the public API: cycle counts, breakdowns and
 * speedups with text formatting.
 */

#ifndef SPARSECORE_API_REPORT_HH
#define SPARSECORE_API_REPORT_HH

#include <cstdint>
#include <string>

#include "api/run.hh"
#include "common/json.hh"
#include "sim/core_model.hh"

namespace sc::api {

/** One substrate's result for a workload. */
struct SubstrateResult
{
    std::string substrate;
    Cycles cycles = 0;
    sim::CycleBreakdown breakdown;
};

/** A two-substrate comparison (e.g. SparseCore vs CPU). */
struct Comparison
{
    std::uint64_t functionalResult = 0; ///< count / checksum
    SubstrateResult baseline;
    SubstrateResult accelerated;
    TraceStats trace; ///< how the shared program was obtained

    double
    speedup() const
    {
        return accelerated.cycles
                   ? static_cast<double>(baseline.cycles) /
                         static_cast<double>(accelerated.cycles)
                   : 0.0;
    }

    /** Multi-line human-readable report. */
    std::string str() const;
};

/** Render a breakdown as "Cache 12.3% | Mispred. 8.4% | ...". */
std::string breakdownStr(const sim::CycleBreakdown &breakdown);

/**
 * The one JSON shape for results — used verbatim by the server, the
 * CLI's --json mode and the bench reports, so the three never drift
 * (they used to be three slightly-different printf formats).
 * Breakdowns emit absolute per-class cycles keyed by class name;
 * TraceStats timing fields are seconds.
 */
JsonValue jsonValue(const sim::CycleBreakdown &breakdown);
JsonValue jsonValue(const TraceStats &trace);
JsonValue jsonValue(const SubstrateResult &result);
JsonValue jsonValue(const RunResult &result);
JsonValue jsonValue(const Comparison &comparison);

} // namespace sc::api

#endif // SPARSECORE_API_REPORT_HH
