/**
 * @file
 * Nested Intersection Translator model (§4.6).
 *
 * S_NESTINTER expands inside the processor into a per-element
 * sequence of micro-ops (S_READ, S_INTER.C, S_FREE, ADD). The
 * translator fetches each element's stream information (CSR offsets
 * through the GFRs) via the load queue, holds it in the translation
 * buffer, and inserts the micro-ops into the ROB as entries free up.
 *
 * The model produces, for each nested element, the cycle at which its
 * intersection micro-op is ready to issue; the engine then schedules
 * those intersections on the SUs.
 */

#ifndef SPARSECORE_ARCH_NEST_TRANSLATOR_HH
#define SPARSECORE_ARCH_NEST_TRANSLATOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/mem_hierarchy.hh"

namespace sc::arch {

/** Translator parameters. */
struct NestTranslatorParams
{
    unsigned bufferEntries = 16; ///< translation buffer size
    unsigned elementsPerCycle = 1; ///< translation throughput
    unsigned infoLoadMlp = 8; ///< overlapped stream-info loads
};

/** The translator model. */
class NestTranslator
{
  public:
    explicit NestTranslator(const NestTranslatorParams &params);

    /**
     * Expand one S_NESTINTER.
     * @param start cycle at which the instruction reaches the
     *        translator with its input stream available
     * @param info_addrs per-element stream-info addresses (CSR vertex
     *        array entries) fetched through the load queue
     * @param mem hierarchy used for the info loads
     * @param ready out: per-element cycles at which each generated
     *        S_INTER.C is ready to be scheduled (resized to match)
     */
    void translate(Cycles start, const std::vector<Addr> &info_addrs,
                   sim::MemHierarchy &mem, std::vector<Cycles> &ready);

    const NestTranslatorParams &params() const { return params_; }
    /** Elements expanded so far. */
    std::uint64_t elements() const { return elements_; }
    /** Micro-ops generated so far (three per element plus one). */
    std::uint64_t instructions() const { return instructions_; }

  private:
    NestTranslatorParams params_;
    std::uint64_t elements_ = 0;
    std::uint64_t instructions_ = 0;
};

} // namespace sc::arch

#endif // SPARSECORE_ARCH_NEST_TRANSLATOR_HH
