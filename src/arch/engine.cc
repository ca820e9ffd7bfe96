#include "arch/engine.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace sc::arch {

using sim::CycleClass;
using streams::SetOpKind;

Engine::Engine(const SparseCoreConfig &config)
    : Engine(config, sim::CoreModel(config.core, config.mem))
{
}

Engine::Engine(const SparseCoreConfig &config, sim::CoreModel &&core)
    : config_(config),
      core_(std::move(core)),
      smt_(config.numStreamRegs),
      scache_(config.numStreamRegs, config.scacheSlotKeys,
              config.mem.l2.lineBytes),
      scratchpad_(config.scratchpadBytes),
      svpu_(config.valueLoadMlp),
      translator_(NestTranslatorParams{config.translationBufferSize, 1,
                                       config.valueLoadMlp}),
      lengthHist_(4, 512)
{
    if (config.numSus == 0)
        fatal("SparseCore needs at least one SU");
    if (config.aggregateBandwidth == 0)
        fatal("aggregate bandwidth must be positive");
    sus_.reserve(config.numSus);
    for (unsigned i = 0; i < config.numSus; ++i)
        sus_.emplace_back(i, config.suWindow, config.suPipelineLatency);
}

void
Engine::reset()
{
    // Only the core is costly to build (its cache tag arrays): keep
    // it, cleared in place, and rebuild the rest around it.
    core_.reset();
    std::shared_ptr<const SuCostColumn> column = std::move(suCosts_);
    *this = Engine(config_, std::move(core_));
    suCosts_ = std::move(column);
}

void
Engine::useSuCosts(std::shared_ptr<const SuCostColumn> column)
{
    if (column && column->window != config_.suWindow)
        panic("SU cost column built at window %u read at window %u",
              column->window, config_.suWindow);
    suCosts_ = std::move(column);
    nextSuCost_ = 0;
}

Engine::OpCost
Engine::opCost(streams::KeySpan a, streams::KeySpan b, SetOpKind kind,
               Key bound)
{
    if (suCosts_) {
        if (nextSuCost_ == suCosts_->entries.size())
            panic("SU cost column of %zu entries read past its end",
                  suCosts_->entries.size());
        const SuCostColumn::Entry &e = suCosts_->entries[nextSuCost_++];
        return {e.cycles, e.consumed};
    }
    const streams::SuCost cost =
        streams::suCost(a, b, kind, bound, config_.suWindow);
    return {cost.cycles, cost.aConsumed + cost.bConsumed};
}

StatSet
Engine::stats() const
{
    StatSet s("engine");
    s.counter("streamInstructions") += counters_.streamInstructions;
    s.counter("sread") += counters_.sread;
    s.counter("svread") += counters_.svread;
    s.counter("sfree") += counters_.sfree;
    s.counter("svinter") += counters_.svinter;
    s.counter("svmerge") += counters_.svmerge;
    s.counter("snestinter") += counters_.snestinter;
    s.counter("setOpElements") += counters_.setOpElements;
    s.counter("smtVirtualizationStalls") +=
        counters_.smtVirtualizationStalls;
    s.counter("scratchpadStreamHits") += counters_.scratchpadStreamHits;
    for (std::size_t k = 0; k < streams::numSetOpKinds; ++k)
        s.counter(std::string("op.") +
                  streams::setOpName(static_cast<SetOpKind>(k))) +=
            counters_.ops[k];
    s.counter("op.nestedIntersect") += counters_.nestedIntersectOps;
    return s;
}

Engine::StreamInfo &
Engine::info(StreamHandle handle)
{
    if (handle >= streams_.size())
        panic("invalid stream handle %u", handle);
    return streams_[handle];
}

Cycles
Engine::gateIssue()
{
    const Cycles t = now();
    // Retire completed ops.
    while (!rob_.empty() && rob_.front().completion <= t)
        rob_.pop_front();
    if (rob_.size() >= config_.maxOutstandingOps) {
        const OutstandingOp oldest = rob_.front();
        stallUntil(oldest.completion, oldest.memShare);
        while (!rob_.empty() && rob_.front().completion <= now())
            rob_.pop_front();
    }
    return now();
}

void
Engine::recordOp(Cycles completion, double mem_share)
{
    rob_.push_back({completion, mem_share});
    maxCompletion_ = std::max(maxCompletion_, completion);
    if (completion > now()) {
        const double gap = static_cast<double>(completion - now());
        drainMemWeight_ += gap * mem_share;
        drainSuWeight_ += gap * (1.0 - mem_share);
    }
}

void
Engine::stallUntil(Cycles target, double mem_share)
{
    const Cycles t = now();
    if (target <= t)
        return;
    const Cycles gap = target - t;
    const auto mem_cycles = static_cast<Cycles>(
        std::llround(static_cast<double>(gap) * mem_share));
    core_.addCycles(CycleClass::Cache, mem_cycles);
    core_.addCycles(CycleClass::Intersection, gap - mem_cycles);
}

StreamHandle
Engine::makeStream(Addr key_addr, Addr val_addr, std::uint32_t length,
                   unsigned priority, streams::KeySpan keys)
{
    (void)keys;
    ++counters_.streamInstructions;
    // The instruction itself plus the operand moves feeding it (the
    // paper's generated code marshals address/length/id/priority
    // into registers before each S_READ/S_VREAD, Fig. 3/4).
    scalarOps(3);
    const Cycles issue = gateIssue();

    auto entry = smt_.define(streams_.size());
    Cycles extra = 0;
    if (!entry) {
        // §4.1 virtualization: spill an SMT entry to the special
        // memory region and retry; modeled as a fixed penalty.
        extra = config_.mem.l2Latency + config_.mem.l3Latency;
        ++counters_.smtVirtualizationStalls;
        smt_.spillOne();
        entry = smt_.define(streams_.size());
    }

    StreamInfo si;
    si.keyAddr = key_addr;
    si.valAddr = val_addr;
    si.length = length;
    si.priority = priority;
    si.smtIndex = *entry;

    // Scratchpad hit: high-priority reused streams skip the refill.
    if (priority > 0 && scratchpad_.lookup(key_addr)) {
        si.readyAt = issue + extra + config_.scratchpadLatency;
        si.memShare = 0.1;
        ++counters_.scratchpadStreamHits;
    } else {
        const Cycles refill = scache_.allocate(
            si.smtIndex, key_addr, length, core_.mem());
        scache_.prefetchRemainder(si.smtIndex, core_.mem());
        si.readyAt = issue + extra + refill;
        si.memShare = 1.0;
        if (priority > 0)
            scratchpad_.insert(key_addr, length);
    }
    smt_.entry(*entry).start = true;
    smt_.entry(*entry).produced = true; // memory-backed: data exists
    si.producedAt = si.readyAt;

    streams_.push_back(si);
    lengthHist_.sample(length);
    recordOp(si.readyAt, si.memShare);
    return static_cast<StreamHandle>(streams_.size() - 1);
}

StreamHandle
Engine::streamRead(Addr key_addr, std::uint32_t length, unsigned priority,
                   streams::KeySpan keys)
{
    ++counters_.sread;
    return makeStream(key_addr, 0, length, priority, keys);
}

StreamHandle
Engine::streamReadKv(Addr key_addr, Addr val_addr, std::uint32_t length,
                     unsigned priority, streams::KeySpan keys)
{
    ++counters_.svread;
    return makeStream(key_addr, val_addr, length, priority, keys);
}

void
Engine::streamFree(StreamHandle handle)
{
    StreamInfo &si = info(handle);
    if (si.freed)
        panic("double free of stream handle %u", handle);
    si.freed = true;
    ++counters_.sfree;
    ++counters_.streamInstructions;
    scalarOps(1);
    smt_.decodeFree(handle);
    smt_.retireFree(si.smtIndex);
    scache_.release(si.smtIndex);
}

Cycles
Engine::scheduleSetOp(SetOpKind kind, StreamHandle a, StreamHandle b,
                      streams::KeySpan ak, streams::KeySpan bk, Key bound,
                      double &mem_share_out)
{
    const Cycles issue = gateIssue();

    // Earliest-free SU.
    StreamUnit *su = &sus_[0];
    for (auto &candidate : sus_)
        if (candidate.freeAt() < su->freeAt())
            su = &candidate;

    const StreamInfo &ia = info(a);
    const StreamInfo &ib = info(b);
    const Cycles operands = std::max(ia.readyAt, ib.readyAt);
    const Cycles su_free = su->freeAt();
    const Cycles start = std::max({issue, su_free, operands});

    const OpCost cost = opCost(ak, bk, kind, bound);
    const Cycles intrinsic = config_.suPipelineLatency + cost.cycles;

    // Fluid bandwidth server shared by all SUs: the operation needs
    // (aConsumed + bConsumed) elements delivered from S-Cache or
    // scratchpad at the aggregate rate.
    const double elems = static_cast<double>(cost.consumed);
    const double bw_start =
        std::max(static_cast<double>(start), bwFreeAt_);
    bwFreeAt_ = bw_start + elems / config_.aggregateBandwidth;
    const auto bw_done = static_cast<Cycles>(std::ceil(bwFreeAt_));

    const Cycles completion = std::max(start + intrinsic, bw_done);
    su->occupy(start, completion);

    // Delay composition: memory is only responsible for the time the
    // operation waited on operands BEYOND when an SU was available
    // (operand prefetch overlaps with earlier SU work).
    const Cycles resource_ready = std::max(issue, su_free);
    const Cycles mem_wait =
        operands > resource_ready ? operands - resource_ready : 0;
    const Cycles total = completion > issue ? completion - issue : 1;
    mem_share_out = std::min(
        1.0, static_cast<double>(mem_wait) / static_cast<double>(total));

    lengthHist_.sample(ak.size());
    lengthHist_.sample(bk.size());
    counters_.setOpElements += cost.consumed;
    ++counters_.ops[static_cast<std::size_t>(kind)];
    return completion;
}

StreamHandle
Engine::setOp(SetOpKind kind, StreamHandle a, StreamHandle b,
              streams::KeySpan ak, streams::KeySpan bk, Key bound,
              std::uint64_t result_len)
{
    ++counters_.streamInstructions;
    scalarOps(2); // instruction + operand moves
    double mem_share = 0.0;
    const Cycles completion =
        scheduleSetOp(kind, a, b, ak, bk, bound, mem_share);

    auto entry = smt_.define(streams_.size());
    Cycles extra = 0;
    if (!entry) {
        extra = config_.mem.l2Latency + config_.mem.l3Latency;
        ++counters_.smtVirtualizationStalls;
        smt_.spillOne();
        entry = smt_.define(streams_.size());
    }

    StreamInfo si;
    si.length = result_len;
    si.smtIndex = *entry;
    si.readyAt = completion + extra;
    si.producedAt = completion + extra;
    si.memShare = mem_share;
    // Dependency bookkeeping (§4.4): record producer links.
    smt_.entry(*entry).pred0 = a;
    smt_.entry(*entry).pred1 = b;
    scache_.allocateProduced(si.smtIndex, result_len);
    if (result_len > config_.scacheSlotKeys)
        scache_.writebackProduced(si.smtIndex, result_len,
                                  core_.mem());
    smt_.entry(*entry).produced = true;

    streams_.push_back(si);
    recordOp(si.producedAt, mem_share);
    return static_cast<StreamHandle>(streams_.size() - 1);
}

void
Engine::setOpCount(SetOpKind kind, StreamHandle a, StreamHandle b,
                   streams::KeySpan ak, streams::KeySpan bk, Key bound)
{
    ++counters_.streamInstructions;
    scalarOps(2); // instruction + operand moves
    double mem_share = 0.0;
    const Cycles completion =
        scheduleSetOp(kind, a, b, ak, bk, bound, mem_share);
    recordOp(completion, mem_share);
}

Cycles
Engine::valueServerDone(Cycles start, std::uint64_t loads)
{
    // The shared load queue drains value requests at a bounded
    // aggregate rate; SU parallelism does not multiply it (§4.5: one
    // load queue feeds every vBuf).
    const double begin =
        std::max(static_cast<double>(start), valueFreeAt_);
    valueFreeAt_ = begin + static_cast<double>(loads) /
                               config_.valueLoadsPerCycle;
    return static_cast<Cycles>(std::ceil(valueFreeAt_));
}

void
Engine::valueIntersect(StreamHandle a, StreamHandle b,
                       streams::KeySpan ak, streams::KeySpan bk,
                       const std::vector<Addr> &match_val_addrs_a,
                       const std::vector<Addr> &match_val_addrs_b)
{
    ++counters_.streamInstructions;
    ++counters_.svinter;
    scalarOps(2);
    double mem_share = 0.0;
    const Cycles su_completion = scheduleSetOp(
        SetOpKind::Intersect, a, b, ak, bk, noBound, mem_share);

    // Value pipeline: VA_gen -> load queue -> vBuf -> SVPU (§4.5).
    const SvpuCost vc = svpu_.process(match_val_addrs_a,
                                      match_val_addrs_b, core_.mem());
    const Cycles value_done =
        valueServerDone(now(), vc.loads) + vc.cycles / 4;
    const Cycles completion = std::max(su_completion, value_done);
    const double combined_share =
        vc.cycles > 0 ? std::max(mem_share, 0.5) : mem_share;
    recordOp(completion, combined_share);
}

StreamHandle
Engine::valueMerge(StreamHandle a, StreamHandle b, streams::KeySpan ak,
                   streams::KeySpan bk, Addr a_val_base, Addr b_val_base,
                   std::uint64_t result_len)
{
    ++counters_.svmerge;
    // Value loads go through the load queue only for MEMORY-backed
    // operands (a_val_base/b_val_base nonzero): a produced stream's
    // values are already on chip and feed the SVPU directly, which is
    // what keeps Gustavson's chained accumulator cheap (§4.5).
    // The SVPU model takes pairwise lists; pad the shorter side with
    // repeats of its last address (sequential, latency-insensitive),
    // and an operand with no loads with a fixed on-chip address.
    const std::size_t n = std::max(a_val_base != 0 ? ak.size() : 0,
                                   b_val_base != 0 ? bk.size() : 0);
    auto fill = [n](std::vector<Addr> &v, Addr base, std::size_t len) {
        v.resize(n);
        if (base == 0 || len == 0) {
            std::fill(v.begin(), v.end(), base ? base : 0x7f0000000ull);
            return;
        }
        for (std::size_t i = 0; i < n; ++i)
            v[i] = base + std::min(i, len - 1) * sizeof(Value);
    };
    fill(valueAddrsA_, a_val_base, ak.size());
    fill(valueAddrsB_, b_val_base, bk.size());
    const SvpuCost vc =
        svpu_.process(valueAddrsA_, valueAddrsB_, core_.mem());

    StreamHandle out = setOp(SetOpKind::Merge, a, b, ak, bk, noBound,
                             result_len);
    StreamInfo &si = info(out);
    // The merged stream is only complete once its values have been
    // fetched, scaled and written: bounded by the shared value-load
    // path plus one output per cycle through the SVPU.
    const std::uint64_t queue_loads =
        (a_val_base != 0 ? ak.size() : 0) +
        (b_val_base != 0 ? bk.size() : 0);
    const Cycles value_done =
        std::max(valueServerDone(si.producedAt, queue_loads),
                 si.producedAt + vc.cycles / 8) +
        result_len / 4;
    si.producedAt = std::max(si.producedAt, value_done);
    si.readyAt = si.producedAt;
    maxCompletion_ = std::max(maxCompletion_, si.producedAt);
    return out;
}

void
Engine::nestedIntersect(StreamHandle s, streams::KeySpan s_keys,
                        const std::vector<NestedElem> &elems)
{
    ++counters_.streamInstructions;
    ++counters_.snestinter;
    if (!config_.nestedIntersection)
        panic("S_NESTINTER issued with nested intersection disabled");
    scalarOps(1);
    const Cycles issue = gateIssue();
    const StreamInfo &si = info(s);
    const Cycles start = std::max(issue, si.readyAt);

    infoAddrs_.clear();
    for (const auto &elem : elems)
        infoAddrs_.push_back(elem.infoAddr);
    translator_.translate(start, infoAddrs_, core_.mem(), ready_);

    // Accumulator ADD micro-op per element.
    scalarOps(elems.size());

    for (std::size_t i = 0; i < elems.size(); ++i) {
        const NestedElem &elem = elems[i];
        // Micro-op S_READ of the nested stream: first-line fetch
        // latency; fetches of consecutive elements overlap, so only
        // the L2-and-beyond portion beyond one line is serialized.
        const Cycles fetch = core_.mem().l2Access(elem.keyAddr);

        StreamUnit *su = &sus_[0];
        for (auto &candidate : sus_)
            if (candidate.freeAt() < su->freeAt())
                su = &candidate;

        const Cycles su_free = su->freeAt();
        const Cycles op_start =
            std::max({ready_[i] + fetch, su_free, start});
        const OpCost cost = opCost(s_keys, elem.nested,
                                   SetOpKind::Intersect, elem.bound);
        const Cycles intrinsic =
            config_.suPipelineLatency + cost.cycles;
        const double elems_moved = static_cast<double>(cost.consumed);
        const double bw_start =
            std::max(static_cast<double>(op_start), bwFreeAt_);
        bwFreeAt_ =
            bw_start + elems_moved / config_.aggregateBandwidth;
        const auto bw_done =
            static_cast<Cycles>(std::ceil(bwFreeAt_));
        const Cycles completion =
            std::max(op_start + intrinsic, bw_done);
        su->occupy(op_start, completion);

        lengthHist_.sample(elem.nested.size());
        counters_.setOpElements += cost.consumed;
        ++counters_.nestedIntersectOps;
        // Memory is charged only for delay beyond SU availability
        // (nested prefetches overlap with earlier intersections).
        const Cycles data_ready = ready_[i] + fetch;
        const Cycles mem_wait =
            data_ready > su_free ? data_ready - su_free : 0;
        const double mem_share =
            completion > op_start
                ? std::min(1.0,
                           static_cast<double>(mem_wait) /
                               static_cast<double>(completion -
                                                   op_start + 1))
                : 0.0;
        recordOp(completion, mem_share);
    }
}

void
Engine::waitFor(StreamHandle handle)
{
    if (handle == invalidStream)
        return;
    const StreamInfo &si = info(handle);
    stallUntil(si.producedAt, si.memShare);
}

void
Engine::fetchLoop(StreamHandle handle, std::uint64_t n,
                  std::uint64_t ops_per_element)
{
    // invalidStream: a plain counted loop not backed by S_FETCH.
    waitFor(handle);
    if (handle != invalidStream)
        counters_.streamInstructions += n; // S_FETCH each
    scalarOps(n * ops_per_element);
    // Loop-closing branch: taken n times, then falls through. These
    // are highly predictable; run them through the real predictor.
    const std::uint64_t pc =
        0x1000 + (static_cast<std::uint64_t>(handle) << 4);
    for (std::uint64_t i = 0; i + 1 < n; ++i)
        core_.executeBranch(pc, true);
    if (n > 0)
        core_.executeBranch(pc, false);
}

Cycles
Engine::finish()
{
    if (suCosts_ && nextSuCost_ != suCosts_->entries.size())
        panic("run read %zu of the %zu SU costs in its column",
              nextSuCost_, suCosts_->entries.size());
    if (maxCompletion_ > now()) {
        const double total = drainMemWeight_ + drainSuWeight_;
        const double share =
            total > 0.0 ? drainMemWeight_ / total : 0.5;
        stallUntil(maxCompletion_, share);
    }
    rob_.clear();
    return now();
}

} // namespace sc::arch
