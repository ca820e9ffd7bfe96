#include "probes.hh"

#include "gpm/executor.hh"
#include "gpm/fsm.hh"
#include "kernels/spmspm.hh"
#include "kernels/ttm.hh"
#include "kernels/ttv.hh"

namespace sc::pipeline {

api::RunResult
runWorkload(const api::RunRequest &req, backend::ExecBackend &be)
{
    api::RunResult out;
    const auto take = [&](const auto &r, std::uint64_t functional) {
        out.functionalResult = functional;
        out.cycles = r.cycles;
        out.breakdown = r.breakdown;
    };
    switch (req.workload) {
      case api::RunRequest::Workload::Gpm: {
        gpm::PlanExecutor executor(*req.graph, be);
        executor.setRootStride(req.options.rootStride);
        const auto r = executor.runMany(gpm::gpmAppPlans(req.app));
        take(r, r.embeddings);
        break;
      }
      case api::RunRequest::Workload::Fsm: {
        const auto r = gpm::runFsm(*req.labeledGraph, be, req.minSupport);
        take(r, r.totalFrequent());
        break;
      }
      case api::RunRequest::Workload::Spmspm: {
        const auto r = kernels::runSpmspm(*req.matrixA, *req.matrixB,
                                          req.algorithm, be,
                                          req.options.stride);
        take(r, r.valueOps);
        break;
      }
      case api::RunRequest::Workload::Ttv: {
        const auto r = kernels::runTtv(*req.tensor, *req.vector, be,
                                       req.options.stride);
        take(r, r.valueOps);
        break;
      }
      case api::RunRequest::Workload::Ttm: {
        const auto r = kernels::runTtm(*req.tensor, *req.matrixB, be,
                                       req.options.stride);
        take(r, r.valueOps);
        break;
      }
    }
    return out;
}

const char *
hookFamilyName(HookFamily family)
{
    switch (family) {
      case HookFamily::SetOp:
        return "setop";
      case HookFamily::SetOpCount:
        return "setop_count";
      case HookFamily::Nested:
        return "nested";
      case HookFamily::StreamLoad:
        return "stream_load";
      case HookFamily::StreamFree:
        return "stream_free";
      case HookFamily::Value:
        return "value";
      case HookFamily::Scalar:
        return "scalar";
      case HookFamily::Control:
      case HookFamily::Count:
        break;
    }
    return "control";
}

void
TimedBackend::begin()
{
    timed(HookFamily::Control, [&] { inner_.begin(); });
}

Cycles
TimedBackend::finish()
{
    return timed(HookFamily::Control, [&] { return inner_.finish(); });
}

void
TimedBackend::scalarOps(std::uint64_t n)
{
    timed(HookFamily::Scalar, [&] { inner_.scalarOps(n); });
}

void
TimedBackend::scalarBranch(std::uint64_t pc, bool taken)
{
    timed(HookFamily::Scalar, [&] { inner_.scalarBranch(pc, taken); });
}

void
TimedBackend::scalarLoad(Addr addr)
{
    timed(HookFamily::Scalar, [&] { inner_.scalarLoad(addr); });
}

backend::BackendStream
TimedBackend::streamLoad(Addr key_addr, std::uint32_t length,
                         unsigned priority, streams::KeySpan keys)
{
    return timed(HookFamily::StreamLoad, [&] {
        return inner_.streamLoad(key_addr, length, priority, keys);
    });
}

backend::BackendStream
TimedBackend::streamLoadKv(Addr key_addr, Addr val_addr,
                           std::uint32_t length, unsigned priority,
                           streams::KeySpan keys)
{
    return timed(HookFamily::StreamLoad, [&] {
        return inner_.streamLoadKv(key_addr, val_addr, length, priority,
                                   keys);
    });
}

void
TimedBackend::streamFree(backend::BackendStream handle)
{
    timed(HookFamily::StreamFree, [&] { inner_.streamFree(handle); });
}

backend::BackendStream
TimedBackend::setOp(streams::SetOpKind kind, backend::BackendStream a,
                    backend::BackendStream b, streams::KeySpan ak,
                    streams::KeySpan bk, Key bound,
                    streams::KeySpan result, Addr out_addr)
{
    return timed(HookFamily::SetOp, [&] {
        return inner_.setOp(kind, a, b, ak, bk, bound, result, out_addr);
    });
}

void
TimedBackend::setOpCount(streams::SetOpKind kind, backend::BackendStream a,
                         backend::BackendStream b, streams::KeySpan ak,
                         streams::KeySpan bk, Key bound,
                         std::uint64_t count)
{
    timed(HookFamily::SetOpCount, [&] {
        inner_.setOpCount(kind, a, b, ak, bk, bound, count);
    });
}

void
TimedBackend::valueIntersect(backend::BackendStream a,
                             backend::BackendStream b, streams::KeySpan ak,
                             streams::KeySpan bk, Addr a_val_base,
                             Addr b_val_base,
                             std::span<const std::uint32_t> match_a,
                             std::span<const std::uint32_t> match_b)
{
    timed(HookFamily::Value, [&] {
        inner_.valueIntersect(a, b, ak, bk, a_val_base, b_val_base,
                              match_a, match_b);
    });
}

void
TimedBackend::denseValueIntersect(backend::BackendStream a,
                                  backend::BackendStream b,
                                  streams::KeySpan ak, streams::KeySpan bk,
                                  Addr a_val_base, Addr b_val_base,
                                  std::span<const std::uint32_t> match_a,
                                  std::span<const std::uint32_t> match_b)
{
    timed(HookFamily::Value, [&] {
        inner_.denseValueIntersect(a, b, ak, bk, a_val_base, b_val_base,
                                   match_a, match_b);
    });
}

backend::BackendStream
TimedBackend::valueMerge(backend::BackendStream a, backend::BackendStream b,
                         streams::KeySpan ak, streams::KeySpan bk,
                         Addr a_val_base, Addr b_val_base,
                         std::uint64_t result_len, Addr out_addr)
{
    return timed(HookFamily::Value, [&] {
        return inner_.valueMerge(a, b, ak, bk, a_val_base, b_val_base,
                                 result_len, out_addr);
    });
}

void
TimedBackend::nestedIntersect(backend::BackendStream s,
                              streams::KeySpan s_keys,
                              const std::vector<backend::NestedItem> &elems)
{
    timed(HookFamily::Nested,
          [&] { inner_.nestedIntersect(s, s_keys, elems); });
}

void
TimedBackend::consumeStream(backend::BackendStream handle)
{
    timed(HookFamily::Control, [&] { inner_.consumeStream(handle); });
}

void
TimedBackend::iterateStream(backend::BackendStream handle, std::uint64_t n,
                            unsigned ops_per_element)
{
    timed(HookFamily::Control, [&] {
        inner_.iterateStream(handle, n, ops_per_element);
    });
}

void
SimCounters::add(backend::CpuBackend &cpu)
{
    sim::MemHierarchy &mem = cpu.core().mem();
    cpuL1Hits += mem.l1().hits();
    cpuL1Misses += mem.l1().misses();
    cpuL2Hits += mem.l2().hits();
    cpuL2Misses += mem.l2().misses();
    cpuL3Hits += mem.l3().hits();
    cpuL3Misses += mem.l3().misses();
    cpuMemAccesses += mem.memAccesses();
    cpuBranches += cpu.core().predictor().lookups();
    cpuMispredicts += cpu.core().predictor().mispredicts();
}

void
SimCounters::add(backend::SparseCoreBackend &sc)
{
    arch::Engine &engine = sc.engine();
    sim::MemHierarchy &mem = engine.core().mem();
    scL1Accesses += mem.l1().hits() + mem.l1().misses();
    scL2Accesses += mem.l2().hits() + mem.l2().misses();
    scMemAccesses += mem.memAccesses();
    streamInstructions += engine.streamInstructions();
    setOpElements += engine.stats().get("setOpElements");
    smtSpills += engine.smt().stats().get("spills");
    smtAllocStalls += engine.smt().stats().get("allocStalls");
    smtVirtStalls += engine.stats().get("smtVirtualizationStalls");
    scacheRefillLines += engine.scache().stats().get("refillLines");
    scachePrefetchLines += engine.scache().stats().get("prefetchLines");
    scacheWritebackLines += engine.scache().stats().get("writebackLines");
    scratchpadHits += engine.scratchpad().hits();
    scratchpadMisses += engine.scratchpad().missesOrAbsent();
}

} // namespace sc::pipeline
