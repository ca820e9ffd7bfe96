/**
 * @file
 * Stream-lifetime checking for captured programs: the same contract
 * the static verifier (analysis/verifier.hh) enforces on stream-ISA
 * programs, applied to the dynamic call sequence an algorithm
 * reported to an ExecBackend, as its SCBC program holds it
 * (verifyBytecode — what api::prepare runs before any replay and
 * scverify runs on an image).
 *
 * Captured sequences are branch-free, so no lattice is needed: the
 * checker walks the concrete define/use/free order and reports the
 * same rule ids the static pass uses. Handles are dense program
 * handles rather than sids; diagnostics carry the event index (the
 * captured call's position, a fused scalar run counting each call)
 * as their pc.
 */

#ifndef SPARSECORE_ANALYSIS_TRACE_CHECK_HH
#define SPARSECORE_ANALYSIS_TRACE_CHECK_HH

#include <cstdint>
#include <map>
#include <string>

#include "analysis/diagnostics.hh"
#include "isa/stream_inst.hh"

namespace sc::trace {
class BytecodeProgram;
} // namespace sc::trace

namespace sc::arch {
struct SparseCoreConfig;
} // namespace sc::arch

namespace sc::analysis {

/**
 * The event-order lifetime checker. Drive it with one call per
 * stream-touching event; query report() at any point.
 */
class StreamLifetimeChecker
{
  public:
    struct Options
    {
        unsigned maxLiveStreams = isa::numStreamRegs;
        /** The SMT virtualizes past the register file by spilling
         *  (§4.1), so dynamic overflow is a performance hazard, not
         *  a correctness error — Warning by default here, unlike the
         *  static pass. */
        Severity overflowSeverity = Severity::Warning;

        /** Options for a concrete machine: the overflow capacity
         *  comes from the job's ArchConfig, not the ISA default. */
        static Options forArch(const arch::SparseCoreConfig &config);
    };

    StreamLifetimeChecker() = default;
    explicit StreamLifetimeChecker(Options options) : opt_(options) {}

    /** Sentinel handles (backend::noStream / trace::noTraceStream as
     *  64-bit values) are ignored by every hook. */
    void onDefine(std::uint64_t handle, bool kv, const char *what);
    void onFree(std::uint64_t handle, const char *what);
    void onUse(std::uint64_t handle, bool need_kv, const char *what);
    /** End of the event stream: leak check. */
    void onEnd();

    /** Advance the event counter (diagnostic pc) by `n` events
     *  without checking — call for non-stream events to keep
     *  indices aligned. */
    void skipEvent(std::uint64_t n = 1) { seq_ += n; }

    const VerifyReport &report() const { return report_; }
    bool hasErrors() const { return report_.hasErrors(); }
    void reset();

  private:
    enum class Lt : std::uint8_t { Key, Kv, Freed };

    static bool ignored(std::uint64_t handle);
    void emit(Rule rule, std::uint64_t handle, const std::string &msg,
              Severity severity = Severity::Error);

    Options opt_;
    std::map<std::uint64_t, Lt> streams_;
    unsigned live_ = 0;
    std::uint64_t seq_ = 0;
    VerifyReport report_;
};

/** Check a program by walking its code in event order. Fused scalar
 *  runs advance the event index without expanding, so memory stays
 *  O(live streams). */
VerifyReport
verifyBytecode(const trace::BytecodeProgram &program,
               StreamLifetimeChecker::Options options = {});

} // namespace sc::analysis

#endif // SPARSECORE_ANALYSIS_TRACE_CHECK_HH
