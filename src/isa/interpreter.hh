/**
 * @file
 * Functional interpreter for stream-ISA programs. Executes the scalar
 * subset plus the full Table-1 extension with architectural precision:
 * SMT mapping rules, re-definition of active stream IDs, exceptions on
 * bad frees, EOS on S_FETCH past the end, checkpoint/rollback around
 * S_NESTINTER (§5.1).
 *
 * This layer is the golden model for ISA semantics; the performance
 * path (src/arch, src/backend) models the same operations in time.
 */

#ifndef SPARSECORE_ISA_INTERPRETER_HH
#define SPARSECORE_ISA_INTERPRETER_HH

#include <array>
#include <cstdint>
#include <span>

#include "common/stats.hh"
#include "isa/arch_state.hh"
#include "isa/stream_inst.hh"

namespace sc::isa {

/** The functional machine: GPRs, FPRs, stream state, memory. */
class Interpreter
{
  public:
    explicit Interpreter(MemoryImage &mem);
    // Not copyable: opcodeCounters_ points into this object's own
    // opcodeCounts_.
    Interpreter(const Interpreter &) = delete;
    Interpreter &operator=(const Interpreter &) = delete;

    /**
     * Run a program from pc 0 until HALT (or the end of the program).
     * @param max_steps guard against runaway loops
     * @throws StreamException on architectural stream errors
     */
    void run(const Program &program,
             std::uint64_t max_steps = 100'000'000);

    /** Execute a single instruction at pc; returns the next pc.
     *  Stream exceptions are annotated with the faulting pc and the
     *  instruction text; StreamFault additionally carries the fault
     *  kind and sid for structured matching. */
    std::uint64_t step(const Program &program, std::uint64_t pc);

    std::uint64_t gpr(unsigned idx) const;
    void setGpr(unsigned idx, std::uint64_t value);
    double fpr(unsigned idx) const;
    void setFpr(unsigned idx, double value);

    /** Read a GPR holding an S_VINTER result as a double. */
    double gprAsDouble(unsigned idx) const;

    StreamState &streams() { return streams_; }
    const StreamState &streams() const { return streams_; }

    std::uint64_t instructionsExecuted() const { return instCount_; }
    /** Dynamic count of stream-extension instructions executed. */
    std::uint64_t streamInstructions() const { return streamInstCount_; }
    const StatSet &opcodeCounts() const { return opcodeCounts_; }

  private:
    /** step() minus the exception annotation wrapper. */
    std::uint64_t dispatch(const Program &program, const Inst &inst,
                           std::uint64_t pc, std::uint64_t target);
    void execStream(const Inst &inst);
    void execNestedIntersect(const Inst &inst);

    /** Materialize both operand key streams of a binary set op. */
    /** Zero-copy operand views: memory-backed streams alias the
     *  borrowed segment arrays, so graph-resident operands resolve in
     *  the setindex registry and runSetOp can pick hybrid formats.
     *  The views are consumed before any register is redefined. */
    void loadOperands(const Inst &inst, std::span<const Key> &a,
                      std::span<const Key> &b);

    MemoryImage &mem_;
    StreamState streams_;
    std::array<std::uint64_t, numGprs> gprs_{};
    std::array<double, numFprs> fprs_{};
    std::uint64_t instCount_ = 0;
    std::uint64_t streamInstCount_ = 0;
    StatSet opcodeCounts_{"opcode"};
    /** opcodeCounts_'s counter for each opcode, bound once. */
    std::array<Counter *, static_cast<std::size_t>(Opcode::NumOpcodes)>
        opcodeCounters_{};
};

} // namespace sc::isa

#endif // SPARSECORE_ISA_INTERPRETER_HH
