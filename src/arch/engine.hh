/**
 * @file
 * The SparseCore execution engine: composes the host core model with
 * the stream components (SMT, S-Cache, scratchpad, SUs, SVPU, nested
 * intersection translator) and schedules stream instructions in time.
 *
 * The engine is driven by an execution backend: the caller reports
 * each dynamic stream instruction together with the operand key
 * spans; the engine computes start/completion times subject to
 *  - operand readiness (S-Cache refill / scratchpad hit),
 *  - SU availability (ops pick the earliest-free SU),
 *  - the aggregated S-Cache/scratchpad -> SU bandwidth, modeled as a
 *    shared fluid server (the Fig. 13 sweep parameter),
 *  - ROB occupancy (bounded outstanding stream instructions), and
 *  - SMT capacity (stream-register virtualization penalty when all
 *    sixteen registers are active).
 *
 * Cycle accounting flows into the Fig. 10 breakdown categories: core
 * scalar work is OtherCompute, branch penalties are Mispredict, and
 * stalls waiting on stream results split between Cache and
 * Intersection according to each operation's delay composition.
 */

#ifndef SPARSECORE_ARCH_ENGINE_HH
#define SPARSECORE_ARCH_ENGINE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "arch/config.hh"
#include "arch/nest_translator.hh"
#include "arch/scache.hh"
#include "arch/scratchpad.hh"
#include "arch/smt.hh"
#include "arch/stream_unit.hh"
#include "arch/svpu.hh"
#include "common/stats.hh"
#include "sim/core_model.hh"
#include "streams/set_ops.hh"

namespace sc::arch {

/** Opaque reference to an engine-tracked stream. */
using StreamHandle = std::uint32_t;
constexpr StreamHandle invalidStream = ~StreamHandle{0};

/** One element of an S_NESTINTER expansion. */
struct NestedElem
{
    Addr infoAddr;  ///< CSR vertex-array entry address (stream info)
    Addr keyAddr;   ///< nested edge list base address
    streams::KeySpan nested; ///< nested edge list keys (bounded)
    Key bound;      ///< intersection upper bound (the element value)
};

/**
 * The streams::suCost results one program's replay asks for, in the
 * order it asks, at one SU window: each entry is an operation's
 * comparator cycles and the elements it moves (aConsumed +
 * bConsumed). trace::suCostColumn builds one per (program, window);
 * the SU count, the bandwidth and the nested flag do not change it.
 */
struct SuCostColumn
{
    struct Entry
    {
        std::uint32_t cycles = 0;
        std::uint32_t consumed = 0;
    };

    unsigned window = 0;
    std::vector<Entry> entries;

    std::size_t
    bytes() const
    {
        return sizeof(*this) + entries.capacity() * sizeof(Entry);
    }
};

/** The timing engine. */
class Engine
{
  public:
    explicit Engine(const SparseCoreConfig &config = SparseCoreConfig{});

    /** Cold state, as constructed: the core's caches and predictor
     *  are cleared in place, everything else is rebuilt. An attached
     *  SU cost column stays attached and is read from its start. */
    void reset();

    /**
     * Read every SU operation's cost from `column`, in order, instead
     * of computing it with streams::suCost (null: compute again).
     * The column must be built at this engine's SU window, and a run
     * must read each entry exactly once: reading past the end panics,
     * and so does finish() when entries are left.
     */
    void useSuCosts(std::shared_ptr<const SuCostColumn> column);

    // ------------- host scalar side -------------
    /** Charge n scalar ALU/addressing operations. */
    void scalarOps(std::uint64_t n) { core_.executeOps(n); }
    /** Charge one conditional branch (runs the core's predictor). */
    void
    scalarBranch(std::uint64_t pc, bool taken)
    {
        core_.executeBranch(pc, taken);
    }
    /** Charge one scalar load through L1. */
    void scalarLoad(Addr addr) { core_.load(addr); }

    // ------------- stream instructions -------------
    /** S_READ: initialize a key stream. */
    StreamHandle streamRead(Addr key_addr, std::uint32_t length,
                            unsigned priority, streams::KeySpan keys);
    /** S_VREAD: initialize a (key,value) stream. */
    StreamHandle streamReadKv(Addr key_addr, Addr val_addr,
                              std::uint32_t length, unsigned priority,
                              streams::KeySpan keys);
    /** S_FREE. */
    void streamFree(StreamHandle handle);

    /**
     * S_INTER / S_SUB / S_MERGE producing an output stream.
     * @param a,b operand handles; @param ak,bk their key spans
     * @param result_len output length (computed functionally)
     */
    StreamHandle setOp(streams::SetOpKind kind, StreamHandle a,
                       StreamHandle b, streams::KeySpan ak,
                       streams::KeySpan bk, Key bound,
                       std::uint64_t result_len);

    /** S_INTER.C / S_SUB.C / S_MERGE.C (count only). */
    void setOpCount(streams::SetOpKind kind, StreamHandle a,
                    StreamHandle b, streams::KeySpan ak,
                    streams::KeySpan bk, Key bound);

    /**
     * S_VINTER: key intersection + value computation on matches.
     * @param match_val_addrs_{a,b} matched value addresses (VA_gen)
     */
    void valueIntersect(StreamHandle a, StreamHandle b,
                        streams::KeySpan ak, streams::KeySpan bk,
                        const std::vector<Addr> &match_val_addrs_a,
                        const std::vector<Addr> &match_val_addrs_b);

    /**
     * S_VMERGE: merged (key,value) output stream; every consumed
     * element's value is loaded and scaled.
     */
    StreamHandle valueMerge(StreamHandle a, StreamHandle b,
                            streams::KeySpan ak, streams::KeySpan bk,
                            Addr a_val_base, Addr b_val_base,
                            std::uint64_t result_len);

    /** S_NESTINTER over stream s with the given expansion. */
    void nestedIntersect(StreamHandle s, streams::KeySpan s_keys,
                         const std::vector<NestedElem> &elems);

    // ------------- synchronization -------------
    /** Core consumes a stream's result (control dependence). */
    void waitFor(StreamHandle handle);
    /** Core iterates n elements of a stream via S_FETCH. */
    void fetchLoop(StreamHandle handle, std::uint64_t n,
                   std::uint64_t ops_per_element = 2);

    /** Drain all outstanding work; returns the final cycle count. */
    Cycles finish();

    // ------------- observability -------------
    Cycles now() const { return core_.cycles(); }
    const sim::CycleBreakdown &breakdown() const
    {
        return core_.breakdown();
    }
    const SparseCoreConfig &config() const { return config_; }
    sim::CoreModel &core() { return core_; }
    const Histogram &streamLengthHist() const { return lengthHist_; }

    /** Event counts; stats() names them ("op.<kind>" for ops). */
    struct Counters
    {
        /** Dynamic stream instructions (Table 1 opcodes). */
        std::uint64_t streamInstructions = 0;
        std::uint64_t sread = 0;
        std::uint64_t svread = 0;
        std::uint64_t sfree = 0;
        std::uint64_t svinter = 0;
        std::uint64_t svmerge = 0;
        std::uint64_t snestinter = 0;
        /** Elements the SUs consumed across every set operation. */
        std::uint64_t setOpElements = 0;
        std::uint64_t smtVirtualizationStalls = 0;
        std::uint64_t scratchpadStreamHits = 0;
        /** SU operations by kind, and nested-intersection elements. */
        std::array<std::uint64_t, streams::numSetOpKinds> ops{};
        std::uint64_t nestedIntersectOps = 0;
    };
    const Counters &counters() const { return counters_; }
    /** Snapshot of counters() by name. */
    StatSet stats() const;

    const Smt &smt() const { return smt_; }
    const SCache &scache() const { return scache_; }
    const Scratchpad &scratchpad() const { return scratchpad_; }
    const Svpu &svpu() const { return svpu_; }
    const NestTranslator &translator() const { return translator_; }
    const std::vector<StreamUnit> &streamUnits() const { return sus_; }
    /** Dynamic stream-instruction count (Table 1 opcodes). */
    std::uint64_t streamInstructions() const
    {
        return counters_.streamInstructions;
    }

  private:
    struct StreamInfo
    {
        Addr keyAddr = 0;
        Addr valAddr = 0;
        std::uint64_t length = 0;
        unsigned priority = 0;
        Cycles readyAt = 0;    ///< first sub-slot usable
        Cycles producedAt = 0; ///< whole stream available
        double memShare = 1.0; ///< memory fraction of its delay
        unsigned smtIndex = 0;
        bool freed = false;
    };

    struct OutstandingOp
    {
        Cycles completion;
        double memShare; ///< memory fraction of the op's latency
    };

    StreamHandle makeStream(Addr key_addr, Addr val_addr,
                            std::uint32_t length, unsigned priority,
                            streams::KeySpan keys);

    /** Apply the ROB outstanding-op limit; returns the issue time. */
    Cycles gateIssue();
    /** Record an op for ROB accounting and final drain. */
    void recordOp(Cycles completion, double mem_share);
    /** Advance core time to `target`, splitting the stall. */
    void stallUntil(Cycles target, double mem_share);

    /** Advance the shared value-load server; returns its drain time. */
    Cycles valueServerDone(Cycles start, std::uint64_t loads);

    /** One SU operation's comparator cycles and elements moved. */
    struct OpCost
    {
        Cycles cycles;
        std::uint64_t consumed;
    };
    /** The column's next entry when one is attached, else
     *  streams::suCost at the engine's window. */
    OpCost opCost(streams::KeySpan a, streams::KeySpan b,
                  streams::SetOpKind kind, Key bound);

    /** Schedule one set op on the SUs; returns completion time. */
    Cycles scheduleSetOp(streams::SetOpKind kind, StreamHandle a,
                         StreamHandle b, streams::KeySpan ak,
                         streams::KeySpan bk, Key bound,
                         double &mem_share_out);

    StreamInfo &info(StreamHandle handle);

    /** Engine(config) around an existing core. */
    Engine(const SparseCoreConfig &config, sim::CoreModel &&core);

    SparseCoreConfig config_;
    sim::CoreModel core_;
    Smt smt_;
    SCache scache_;
    Scratchpad scratchpad_;
    std::vector<StreamUnit> sus_;
    Svpu svpu_;
    NestTranslator translator_;

    std::vector<StreamInfo> streams_;
    std::deque<OutstandingOp> rob_;
    double bwFreeAt_ = 0.0; ///< fluid bandwidth-server virtual time
    /** Value loads go through the core's shared load queue (§4.5);
     *  this fluid server bounds aggregate value throughput. */
    double valueFreeAt_ = 0.0;
    Cycles maxCompletion_ = 0;
    double drainMemWeight_ = 0.0;
    double drainSuWeight_ = 0.0;

    Histogram lengthHist_;
    Counters counters_;

    std::shared_ptr<const SuCostColumn> suCosts_;
    std::size_t nextSuCost_ = 0; ///< the column entry read next

    // Scratch buffers reused across instructions (no per-call
    // allocation on the replay path).
    std::vector<Addr> infoAddrs_;
    std::vector<Cycles> ready_;
    std::vector<Addr> valueAddrsA_;
    std::vector<Addr> valueAddrsB_;
};

} // namespace sc::arch

#endif // SPARSECORE_ARCH_ENGINE_HH
