/**
 * @file
 * Diagnostic types shared by the stream-program static verifier
 * (analysis/verifier.hh) and the trace/bytecode checker
 * (analysis/trace_check.hh).
 *
 * Every rule has a stable kebab-case id ("use-after-free") that the
 * scverify CLI prints and the golden-diagnostic tests assert on; rule
 * ids are an output format, not just an enum — renaming one is a
 * breaking change for scripts parsing scverify output.
 */

#ifndef SPARSECORE_ANALYSIS_DIAGNOSTICS_HH
#define SPARSECORE_ANALYSIS_DIAGNOSTICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace sc::analysis {

/** The verifier's rule table (DESIGN.md §12). */
enum class Rule : unsigned
{
    UseBeforeRead,  ///< stream used before any S_READ/S_VREAD
    UseAfterFree,   ///< stream used after S_FREE
    DoubleFree,     ///< S_FREE of an already-freed stream
    StreamLeak,     ///< stream still live at Halt / program exit
    RedefineLive,   ///< (re)definition of a live sid without S_FREE
    ValueOpOnKeyStream, ///< S_VINTER/S_VMERGE without S_VREAD ancestry
    NestInterWithoutGfr, ///< S_NESTINTER not dominated by S_LD_GFR
    PredCycle,      ///< SMT pred0/pred1 dependency cycle
    StreamOverflow, ///< more streams live than stream registers
    NumRules
};

/** Stable kebab-case rule id ("use-after-free"). */
const char *ruleId(Rule rule);
/** One-line description of what the rule guards. */
const char *ruleDescription(Rule rule);

enum class Severity : std::uint8_t { Warning, Error };

/** One finding: rule + location + human-readable text. */
struct Diagnostic
{
    Rule rule = Rule::NumRules;
    Severity severity = Severity::Error;
    /** Program counter (ISA programs) or event index (traces). */
    std::uint64_t pc = 0;
    /** The stream id (ISA programs) or handle (traces) involved. */
    std::uint64_t sid = 0;
    std::string message; ///< includes the offending instruction text

    /** "pc 12: error[use-after-free]: ..." */
    std::string format() const;
};

/** The verifier's outcome: diagnostics in program order. */
struct VerifyReport
{
    std::vector<Diagnostic> diagnostics;

    bool clean() const { return diagnostics.empty(); }
    std::size_t errorCount() const;
    std::size_t warningCount() const;
    bool hasErrors() const { return errorCount() != 0; }

    /** All diagnostics, one per line. */
    std::string format() const;
};

/** Thrown by the debug-build run/replay hooks on verifier errors. */
class VerifyError : public SimError
{
  public:
    explicit VerifyError(const std::string &msg)
        : SimError("stream verifier: " + msg)
    {}
};

/**
 * Whether the run/replay hooks verify by default: on in debug builds
 * (!NDEBUG), off in release, overridable either way with SC_VERIFY=0
 * or SC_VERIFY=1 in the environment.
 */
bool verifyByDefault();

} // namespace sc::analysis

#endif // SPARSECORE_ANALYSIS_DIAGNOSTICS_HH
