#include "backend/functional_backend.hh"

namespace sc::backend {

FunctionalBackend::FunctionalBackend()
    : streamLoads_(stats_.counter("streamLoads")),
      streamLoadsKv_(stats_.counter("streamLoadsKv")),
      streamFrees_(stats_.counter("streamFrees")),
      setOpElements_(stats_.counter("setOpElements")),
      valueIntersects_(stats_.counter("valueIntersects")),
      valueMatches_(stats_.counter("valueMatches")),
      valueMerges_(stats_.counter("valueMerges")),
      nestedIntersects_(stats_.counter("nestedIntersects")),
      nestedElements_(stats_.counter("nestedElements"))
{
    for (std::size_t k = 0; k < numSetOpKinds; ++k) {
        const char *name =
            streams::setOpName(static_cast<streams::SetOpKind>(k));
        setOps_[k] = &stats_.counter(std::string("setOp.") + name);
        setOpCounts_[k] =
            &stats_.counter(std::string("setOpCount.") + name);
    }
}

void
FunctionalBackend::begin()
{
    next_ = 0;
    liveStreams_ = 0;
    stats_.reset();
    lengthHist_.reset();
}

BackendStream
FunctionalBackend::nextHandle()
{
    return next_++;
}

BackendStream
FunctionalBackend::streamLoad(Addr, std::uint32_t length, unsigned,
                              streams::KeySpan)
{
    ++streamLoads_;
    ++liveStreams_;
    lengthHist_.sample(length);
    return nextHandle();
}

BackendStream
FunctionalBackend::streamLoadKv(Addr, Addr, std::uint32_t length,
                                unsigned, streams::KeySpan)
{
    ++streamLoadsKv_;
    ++liveStreams_;
    lengthHist_.sample(length);
    return nextHandle();
}

void
FunctionalBackend::streamFree(BackendStream)
{
    ++streamFrees_;
    --liveStreams_;
}

BackendStream
FunctionalBackend::setOp(streams::SetOpKind kind, BackendStream,
                         BackendStream, streams::KeySpan ak,
                         streams::KeySpan bk, Key, streams::KeySpan,
                         Addr)
{
    ++*setOps_[static_cast<std::size_t>(kind)];
    setOpElements_ += ak.size() + bk.size();
    lengthHist_.sample(ak.size());
    lengthHist_.sample(bk.size());
    ++liveStreams_;
    return nextHandle();
}

void
FunctionalBackend::setOpCount(streams::SetOpKind kind, BackendStream,
                              BackendStream, streams::KeySpan ak,
                              streams::KeySpan bk, Key, std::uint64_t)
{
    ++*setOpCounts_[static_cast<std::size_t>(kind)];
    setOpElements_ += ak.size() + bk.size();
    lengthHist_.sample(ak.size());
    lengthHist_.sample(bk.size());
}

void
FunctionalBackend::valueIntersect(BackendStream, BackendStream,
                                  streams::KeySpan ak,
                                  streams::KeySpan bk, Addr, Addr,
                                  std::span<const std::uint32_t> match_a,
                                  std::span<const std::uint32_t>)
{
    ++valueIntersects_;
    valueMatches_ += match_a.size();
    lengthHist_.sample(ak.size());
    lengthHist_.sample(bk.size());
}

BackendStream
FunctionalBackend::valueMerge(BackendStream, BackendStream,
                              streams::KeySpan ak, streams::KeySpan bk,
                              Addr, Addr, std::uint64_t, Addr)
{
    ++valueMerges_;
    lengthHist_.sample(ak.size());
    lengthHist_.sample(bk.size());
    ++liveStreams_;
    return nextHandle();
}

void
FunctionalBackend::nestedIntersect(BackendStream, streams::KeySpan,
                                   const std::vector<NestedItem> &elems)
{
    ++nestedIntersects_;
    nestedElements_ += elems.size();
    for (const auto &elem : elems)
        lengthHist_.sample(elem.nested.size());
}

} // namespace sc::backend
