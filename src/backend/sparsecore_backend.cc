#include "backend/sparsecore_backend.hh"

namespace sc::backend {

SparseCoreBackend::SparseCoreBackend(const arch::SparseCoreConfig &config)
    : engine_(config)
{
}

void
SparseCoreBackend::begin()
{
    engine_.reset();
}

Cycles
SparseCoreBackend::finish()
{
    return engine_.finish();
}

sim::CycleBreakdown
SparseCoreBackend::breakdown() const
{
    return engine_.breakdown();
}

BackendStream
SparseCoreBackend::streamLoad(Addr key_addr, std::uint32_t length,
                              unsigned priority, streams::KeySpan keys)
{
    return engine_.streamRead(key_addr, length, priority, keys);
}

BackendStream
SparseCoreBackend::streamLoadKv(Addr key_addr, Addr val_addr,
                                std::uint32_t length, unsigned priority,
                                streams::KeySpan keys)
{
    return engine_.streamReadKv(key_addr, val_addr, length, priority,
                                keys);
}

void
SparseCoreBackend::streamFree(BackendStream handle)
{
    engine_.streamFree(handle);
}

BackendStream
SparseCoreBackend::setOp(streams::SetOpKind kind, BackendStream a,
                         BackendStream b, streams::KeySpan ak,
                         streams::KeySpan bk, Key bound,
                         streams::KeySpan result, Addr)
{
    return engine_.setOp(kind, a, b, ak, bk, bound, result.size());
}

void
SparseCoreBackend::setOpCount(streams::SetOpKind kind, BackendStream a,
                              BackendStream b, streams::KeySpan ak,
                              streams::KeySpan bk, Key bound,
                              std::uint64_t)
{
    engine_.setOpCount(kind, a, b, ak, bk, bound);
}

void
SparseCoreBackend::valueIntersect(BackendStream a, BackendStream b,
                                  streams::KeySpan ak,
                                  streams::KeySpan bk, Addr a_val_base,
                                  Addr b_val_base,
                                  std::span<const std::uint32_t> match_a,
                                  std::span<const std::uint32_t> match_b)
{
    auto addrs = [](std::vector<Addr> &out, Addr base,
                    std::span<const std::uint32_t> match) {
        out.resize(match.size());
        for (std::size_t i = 0; i < match.size(); ++i)
            out[i] = base + match[i] * sizeof(Value);
    };
    addrs(valueAddrsA_, a_val_base, match_a);
    addrs(valueAddrsB_, b_val_base, match_b);
    engine_.valueIntersect(a, b, ak, bk, valueAddrsA_, valueAddrsB_);
}

BackendStream
SparseCoreBackend::valueMerge(BackendStream a, BackendStream b,
                              streams::KeySpan ak, streams::KeySpan bk,
                              Addr a_val_base, Addr b_val_base,
                              std::uint64_t result_len, Addr)
{
    return engine_.valueMerge(a, b, ak, bk, a_val_base, b_val_base,
                              result_len);
}

void
SparseCoreBackend::nestedIntersect(BackendStream s,
                                   streams::KeySpan s_keys,
                                   const std::vector<NestedItem> &elems)
{
    if (!caps().nested) {
        // Design without S_NESTINTER (TS/4CS/5CS): run the lowered
        // per-element loop.
        ExecBackend::nestedIntersect(s, s_keys, elems);
        return;
    }
    nestedElems_.clear();
    for (const auto &elem : elems)
        nestedElems_.push_back(
            {elem.infoAddr, elem.keyAddr, elem.nested, elem.bound});
    engine_.nestedIntersect(s, s_keys, nestedElems_);
    scalarOps(1); // copy acc_reg to the destination
}

void
SparseCoreBackend::consumeStream(BackendStream handle)
{
    engine_.waitFor(handle);
}

void
SparseCoreBackend::iterateStream(BackendStream handle, std::uint64_t n,
                                 unsigned ops_per_element)
{
    engine_.fetchLoop(handle, n, ops_per_element);
}

} // namespace sc::backend
