/**
 * @file
 * SparseCore architecture configuration (Table 2 defaults plus the
 * §4.2/§4.3 stream-component parameters).
 */

#ifndef SPARSECORE_ARCH_CONFIG_HH
#define SPARSECORE_ARCH_CONFIG_HH

#include <string>

#include "common/logging.hh"
#include "sim/core_model.hh"
#include "sim/mem_hierarchy.hh"

namespace sc::arch {

/** Upper bounds of the arch overrides a job or tool may set (each
 *  accepts 1 .. the bound): JobSpec's "arch" object and scverify's
 *  --sus/--window/--bandwidth flags enforce these. */
constexpr unsigned maxSus = 64;
constexpr unsigned maxSuWindow = 1024;
constexpr unsigned maxAggregateBandwidth = 65536;

/** All knobs of the SparseCore extension. */
struct SparseCoreConfig
{
    /** Number of Stream Units (the paper's design point is 4;
     *  accelerator comparisons use 1). */
    unsigned numSus = 4;
    /** SU parallel-comparison window (16-element double buffer). */
    unsigned suWindow = 16;
    /** Fixed SU start/drain pipeline latency per operation. */
    sc::Cycles suPipelineLatency = 4;
    /** Keys per S-Cache slot (64 keys = 256 B, Table 2). */
    unsigned scacheSlotKeys = 64;
    /** Number of stream registers / SMT entries (§3.2: 16). */
    unsigned numStreamRegs = 16;
    /**
     * Aggregated S-Cache + scratchpad bandwidth in elements per cycle
     * delivered to the SUs (the Fig. 13 sweep parameter; the default
     * models two cache lines of keys per cycle, §4.3).
     */
    unsigned aggregateBandwidth = 32;
    /** Scratchpad capacity in bytes (Table 2: 16 KB). */
    unsigned scratchpadBytes = 16 * 1024;
    /** Scratchpad access latency in cycles. */
    sc::Cycles scratchpadLatency = 1;
    /** Nested-intersection translation buffer entries (§4.6). */
    unsigned translationBufferSize = 16;
    /** Memory-level parallelism of the value load queue (§4.5). */
    unsigned valueLoadMlp = 8;
    /**
     * Sustained value loads per cycle through the shared load queue
     * (vBuf fills contend with the core's own memory accesses, so
     * value throughput does not scale with the SU count).
     */
    unsigned valueLoadsPerCycle = 2;
    /**
     * Maximum stream instructions in flight (each takes one ROB entry
     * alongside the surrounding scalar instructions; robSize/4 leaves
     * room for the scalar code between stream instructions).
     */
    unsigned maxOutstandingOps = 32;
    /** Enable S_NESTINTER (disabled for the TS/4CS/5CS variants). */
    bool nestedIntersection = true;

    sim::CoreParams core;
    sim::MemParams mem;

    /** One-line description for bench headers. */
    std::string
    describe() const
    {
        return strprintf(
            "SparseCore: %u SU(s) (window %u), S-Cache slot %u keys, "
            "bw %u elem/cyc, scratchpad %u KB, nested=%s, ROB %u, LQ %u",
            numSus, suWindow, scacheSlotKeys, aggregateBandwidth,
            scratchpadBytes / 1024, nestedIntersection ? "on" : "off",
            core.robSize, core.loadQueueSize);
    }
};

} // namespace sc::arch

#endif // SPARSECORE_ARCH_CONFIG_HH
