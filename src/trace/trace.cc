#include "trace/trace.hh"

#include <cstring>

namespace sc::trace {

namespace {

/** FNV-1a over the span's raw bytes. */
std::uint64_t
contentHash(streams::KeySpan keys)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const Key k : keys) {
        h ^= k;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::ScalarOps:
        return "scalarOps";
      case EventKind::ScalarBranch:
        return "scalarBranch";
      case EventKind::ScalarLoad:
        return "scalarLoad";
      case EventKind::StreamLoad:
        return "streamLoad";
      case EventKind::StreamLoadKv:
        return "streamLoadKv";
      case EventKind::StreamFree:
        return "streamFree";
      case EventKind::SetOp:
        return "setOp";
      case EventKind::SetOpCount:
        return "setOpCount";
      case EventKind::ValueIntersect:
        return "valueIntersect";
      case EventKind::DenseValueIntersect:
        return "denseValueIntersect";
      case EventKind::ValueMerge:
        return "valueMerge";
      case EventKind::NestedGroup:
        return "nestedGroup";
      case EventKind::ConsumeStream:
        return "consumeStream";
      case EventKind::IterateStream:
        return "iterateStream";
      default:
        return "unknown";
    }
}

void
Trace::clear()
{
    arena_.clear();
    events_.clear();
    nested_.clear();
    handleCount_ = 0;
    interned_.clear();
}

SpanRef
Trace::intern(streams::KeySpan keys)
{
    if (keys.empty())
        return SpanRef{};
    const std::uint64_t h = contentHash(keys);
    auto &bucket = interned_[h];
    for (const SpanRef &ref : bucket) {
        if (ref.len == keys.size() &&
            std::memcmp(arena_.data() + ref.off, keys.data(),
                        keys.size() * sizeof(Key)) == 0)
            return ref;
    }
    SpanRef ref{arena_.size(), static_cast<std::uint32_t>(keys.size())};
    arena_.insert(arena_.end(), keys.begin(), keys.end());
    bucket.push_back(ref);
    return ref;
}

std::size_t
Trace::memoryBytes() const
{
    return arena_.capacity() * sizeof(Key) +
           events_.capacity() * sizeof(Event) +
           nested_.capacity() * sizeof(NestedEntry);
}

} // namespace sc::trace
