/**
 * @file
 * Scalar out-of-order core cost model.
 *
 * This is the zSim-style instruction-driven timing stand-in the paper
 * builds on: callers describe the dynamic instruction mix (ALU ops,
 * branches with outcomes, loads with addresses) and the model
 * accumulates cycles into the four categories of Figs. 9/10 —
 * Cache, Mispred., Other computation, and Intersection.
 */

#ifndef SPARSECORE_SIM_CORE_MODEL_HH
#define SPARSECORE_SIM_CORE_MODEL_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/branch_predictor.hh"
#include "sim/mem_hierarchy.hh"

namespace sc::sim {

/** Core pipeline parameters (Table 2: ROB 128, LQ 32). */
struct CoreParams
{
    unsigned issueWidth = 4;
    unsigned robSize = 128;
    unsigned loadQueueSize = 32;
    Cycles mispredictPenalty = 14;
    /**
     * Fraction of a long-latency miss the OOO window cannot hide.
     * Sequential stream accesses enjoy high MLP; 0.6 calibrates the
     * CPU breakdown to the paper's Fig. 9 shape.
     */
    double missStallFraction = 0.6;
};

/** Cycle accounting categories (the Fig. 9/10 stack). */
enum class CycleClass : unsigned
{
    Cache = 0,       ///< memory stall cycles
    Mispredict,      ///< branch misprediction penalty cycles
    OtherCompute,    ///< non-set-op computation
    Intersection,    ///< set-operation (intersection/subtraction/merge)
    NumClasses
};

/** Human-readable label for a cycle class. */
const char *cycleClassName(CycleClass cls);

/** Per-class cycle totals. */
struct CycleBreakdown
{
    std::array<Cycles, static_cast<unsigned>(CycleClass::NumClasses)>
        cycles{};

    Cycles &operator[](CycleClass cls)
    {
        return cycles[static_cast<unsigned>(cls)];
    }
    Cycles operator[](CycleClass cls) const
    {
        return cycles[static_cast<unsigned>(cls)];
    }
    Cycles
    total() const
    {
        Cycles sum = 0;
        for (Cycles c : cycles)
            sum += c;
        return sum;
    }
    /** Fraction of total in a class (0 when total is 0). */
    double fraction(CycleClass cls) const;
    CycleBreakdown &operator+=(const CycleBreakdown &other);
};

/**
 * The core model. Owns its branch predictor and memory hierarchy and
 * exposes event-level charging methods used by execution backends.
 * The per-event methods are inline; only a load that misses L1 leaves
 * the header.
 */
class CoreModel
{
  public:
    explicit CoreModel(const CoreParams &params = CoreParams{},
                       const MemParams &mem_params = MemParams{});

    /** Charge n generic ALU/addressing ops (issueWidth-wide). */
    void
    executeOps(std::uint64_t n,
               CycleClass cls = CycleClass::OtherCompute)
    {
        breakdown_[cls] +=
            (n + params_.issueWidth - 1) / params_.issueWidth;
    }

    /**
     * Charge one conditional branch; runs the predictor and charges
     * the mispredict penalty when it misses.
     * @return true when mispredicted.
     */
    bool
    executeBranch(std::uint64_t pc, bool taken,
                  CycleClass compute_cls = CycleClass::OtherCompute)
    {
        executeOps(1, compute_cls);
        const bool mispredicted = !predictor_.predict(pc, taken);
        breakdown_[CycleClass::Mispredict] +=
            params_.mispredictPenalty * mispredicted;
        return mispredicted;
    }

    /**
     * Charge one load. L1 hits are considered fully pipelined; deeper
     * misses charge missStallFraction of the beyond-L1 latency as
     * cache-stall cycles.
     */
    void
    load(Addr addr, CycleClass compute_cls = CycleClass::OtherCompute)
    {
        loadOverlapped(addr, 1, compute_cls);
    }

    /**
     * Charge one load from a batch of INDEPENDENT accesses (gather /
     * scatter loops with no serial dependence): the OOO window
     * overlaps the misses, so the beyond-L1 stall is divided by mlp.
     */
    void
    loadOverlapped(Addr addr, unsigned mlp,
                   CycleClass compute_cls = CycleClass::OtherCompute)
    {
        if (mlp == 0)
            fatal("load MLP must be positive");
        executeOps(1, compute_cls);
        MemLevel level;
        const Cycles latency = mem_.l1Access(addr, level);
        if (level != MemLevel::L1)
            chargeMiss(latency - mem_.params().l1Latency, mlp);
    }

    /** Directly add cycles to a class (specialized callers). */
    void addCycles(CycleClass cls, Cycles n) { breakdown_[cls] += n; }

    Cycles cycles() const { return breakdown_.total(); }
    const CycleBreakdown &breakdown() const { return breakdown_; }

    MemHierarchy &mem() { return mem_; }
    GsharePredictor &predictor() { return predictor_; }
    const CoreParams &params() const { return params_; }

    /** Cold state: zero cycles, empty caches, untrained predictor. */
    void reset();

  private:
    /** Charge the unhidden share of a beyond-L1 latency as Cache
     *  cycles: llround(beyond_l1 * missStallFraction / mlp). */
    void chargeMiss(Cycles beyond_l1, unsigned mlp);

    CoreParams params_;
    GsharePredictor predictor_;
    MemHierarchy mem_;
    CycleBreakdown breakdown_;
};

} // namespace sc::sim

#endif // SPARSECORE_SIM_CORE_MODEL_HH
