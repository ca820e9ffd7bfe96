#include "arch/nest_translator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sc::arch {

NestTranslator::NestTranslator(const NestTranslatorParams &params)
    : params_(params)
{
    if (params.bufferEntries == 0 || params.elementsPerCycle == 0 ||
        params.infoLoadMlp == 0) {
        fatal("nested-intersection translator parameters must be "
              "positive");
    }
}

void
NestTranslator::translate(Cycles start,
                          const std::vector<Addr> &info_addrs,
                          sim::MemHierarchy &mem,
                          std::vector<Cycles> &ready)
{
    ready.resize(info_addrs.size());
    Cycles info_pipe = start;

    for (std::size_t i = 0; i < info_addrs.size(); ++i) {
        // Stream-info load through the load queue; loads overlap up
        // to infoLoadMlp, modeled as a pipeline advancing by
        // latency/mlp per element.
        const Cycles latency = mem.l1Access(info_addrs[i]);
        info_pipe += std::max<Cycles>(
            1, latency / params_.infoLoadMlp);

        // The translation buffer holds bufferEntries in-flight
        // elements: element i may begin translating only after
        // element i - bufferEntries has drained. An element drains
        // once its micro-ops are inserted, i.e. when it is ready: the
        // S_INTER.C itself executes later on an SU, but the buffer
        // entry is released at insertion (§4.6: ROB retirement and
        // refills release the space independently).
        Cycles slot_free = start;
        if (i >= params_.bufferEntries)
            slot_free = ready[i - params_.bufferEntries];

        // Translation itself takes one cycle per elementsPerCycle
        // group; with the default of one element per cycle this is a
        // one-cycle step.
        const Cycles trans_step =
            (i % params_.elementsPerCycle == 0) ? 1 : 0;
        ready[i] = std::max(info_pipe, slot_free) + trans_step;
    }
    elements_ += info_addrs.size();
    instructions_ += info_addrs.size() * 3 + 1;
}

} // namespace sc::arch
