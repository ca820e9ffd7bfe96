#include "trace/recorder.hh"

#include <cstring>

namespace sc::trace {

using backend::BackendStream;

namespace {

/** FNV-1a over the span's keys. */
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

/** Longest fused scalar run (the run count is one u32 word). */
constexpr std::uint32_t maxScalarRun = 0xffffffffu;

} // namespace

void
TraceRecorder::begin()
{
    program_ = BytecodeProgram{};
    interned_.clear();
    nfields_ = 0;
    lastAddr_ = 0;
    runCount_ = 0;
    next_ = 0;
}

BytecodeProgram
TraceRecorder::takeTrace()
{
    flushRun();
    program_.handleCount_ = next_;
    program_.code_.shrink_to_fit();
    program_.arena_.shrink_to_fit();
    program_.nested_.shrink_to_fit();
    // The audit re-decodes the code with the shared walker, so it
    // also proves encoder and decoder agree on this program's layout.
    program_.finalize();
    BytecodeProgram out = std::move(program_);
    begin();
    return out;
}

SpanRef
TraceRecorder::intern(streams::KeySpan keys)
{
    if (keys.empty())
        return SpanRef{};
    std::vector<Key> &arena = program_.arena_;
    auto &bucket = interned_[contentHash(keys)];
    for (const SpanRef &ref : bucket) {
        if (ref.len == keys.size() &&
            std::memcmp(arena.data() + ref.off, keys.data(),
                        keys.size() * sizeof(Key)) == 0)
            return ref;
    }
    SpanRef ref{arena.size(), static_cast<std::uint32_t>(keys.size())};
    arena.insert(arena.end(), keys.begin(), keys.end());
    bucket.push_back(ref);
    return ref;
}

void
TraceRecorder::emit(Op op, std::uint8_t aux)
{
    bool wide = false;
    for (unsigned i = 0; i < nfields_; ++i)
        if (fields_[i].u64Class && fields_[i].value > 0xffffffffull) {
            wide = true;
            break;
        }
    std::vector<Word> &code = program_.code_;
    code.push_back(static_cast<Word>(op) | (Word{aux} << auxShift) |
                   (wide ? flagWide : 0));
    for (unsigned i = 0; i < nfields_; ++i) {
        const Operand &f = fields_[i];
        code.push_back(static_cast<Word>(f.value));
        if (f.u64Class && wide)
            code.push_back(static_cast<Word>(f.value >> 32));
    }
    nfields_ = 0;
    ++program_.numInstructions_;
    ++program_.numEvents_;
}

BackendStream
TraceRecorder::emitCreating(Op op, std::uint8_t aux)
{
    emit(op, aux);
    return next_++;
}

void
TraceRecorder::flushRun()
{
    if (runCount_ == 0)
        return;
    if (runCount_ == 1) {
        u64f(runN_);
        emit(Op::ScalarOps);
    } else {
        u32f(runCount_);
        u64f(runN_);
        emit(Op::ScalarOpsRun);
        program_.numEvents_ += runCount_ - 1;
    }
    runCount_ = 0;
}

void
TraceRecorder::scalarOps(std::uint64_t n)
{
    if (runCount_ != 0 && runN_ == n && runCount_ < maxScalarRun) {
        ++runCount_;
        return;
    }
    flushRun();
    runN_ = n;
    runCount_ = 1;
}

void
TraceRecorder::scalarBranch(std::uint64_t pc, bool taken)
{
    flushRun();
    addrf(pc);
    emit(Op::ScalarBranch, taken ? 1 : 0);
}

void
TraceRecorder::scalarLoad(Addr addr)
{
    flushRun();
    addrf(addr);
    emit(Op::ScalarLoad);
}

BackendStream
TraceRecorder::streamLoad(Addr key_addr, std::uint32_t length,
                          unsigned priority, streams::KeySpan keys)
{
    flushRun();
    addrf(key_addr);
    u64f(length);
    spanf(keys);
    return emitCreating(Op::StreamLoad,
                        static_cast<std::uint8_t>(priority));
}

BackendStream
TraceRecorder::streamLoadKv(Addr key_addr, Addr val_addr,
                            std::uint32_t length, unsigned priority,
                            streams::KeySpan keys)
{
    flushRun();
    addrf(key_addr);
    addrf(val_addr);
    u64f(length);
    spanf(keys);
    return emitCreating(Op::StreamLoadKv,
                        static_cast<std::uint8_t>(priority));
}

void
TraceRecorder::streamFree(BackendStream handle)
{
    flushRun();
    u32f(handle);
    emit(Op::StreamFree);
}

BackendStream
TraceRecorder::setOp(streams::SetOpKind kind, BackendStream a,
                     BackendStream b, streams::KeySpan ak,
                     streams::KeySpan bk, Key bound,
                     streams::KeySpan result, Addr out_addr)
{
    flushRun();
    u32f(a);
    u32f(b);
    spanf(ak);
    spanf(bk);
    u32f(bound);
    spanf(result);
    addrf(out_addr);
    return emitCreating(Op::SetOp, static_cast<std::uint8_t>(kind));
}

void
TraceRecorder::setOpCount(streams::SetOpKind kind, BackendStream a,
                          BackendStream b, streams::KeySpan ak,
                          streams::KeySpan bk, Key bound,
                          std::uint64_t count)
{
    flushRun();
    u32f(a);
    u32f(b);
    spanf(ak);
    spanf(bk);
    u32f(bound);
    u64f(count);
    emit(Op::SetOpCount, static_cast<std::uint8_t>(kind));
}

void
TraceRecorder::recordValueIntersect(
    Op op, BackendStream a, BackendStream b, streams::KeySpan ak,
    streams::KeySpan bk, Addr a_val_base, Addr b_val_base,
    std::span<const std::uint32_t> match_a,
    std::span<const std::uint32_t> match_b)
{
    flushRun();
    u32f(a);
    u32f(b);
    spanf(ak);
    spanf(bk);
    addrf(a_val_base);
    addrf(b_val_base);
    spanf({match_a.data(), match_a.size()});
    spanf({match_b.data(), match_b.size()});
    emit(op);
}

void
TraceRecorder::valueIntersect(BackendStream a, BackendStream b,
                              streams::KeySpan ak, streams::KeySpan bk,
                              Addr a_val_base, Addr b_val_base,
                              std::span<const std::uint32_t> match_a,
                              std::span<const std::uint32_t> match_b)
{
    recordValueIntersect(Op::ValueIntersect, a, b, ak, bk, a_val_base,
                         b_val_base, match_a, match_b);
}

void
TraceRecorder::denseValueIntersect(
    BackendStream a, BackendStream b, streams::KeySpan ak,
    streams::KeySpan bk, Addr a_val_base, Addr b_val_base,
    std::span<const std::uint32_t> match_a,
    std::span<const std::uint32_t> match_b)
{
    recordValueIntersect(Op::DenseValueIntersect, a, b, ak, bk,
                         a_val_base, b_val_base, match_a, match_b);
}

BackendStream
TraceRecorder::valueMerge(BackendStream a, BackendStream b,
                          streams::KeySpan ak, streams::KeySpan bk,
                          Addr a_val_base, Addr b_val_base,
                          std::uint64_t result_len, Addr out_addr)
{
    flushRun();
    u32f(a);
    u32f(b);
    spanf(ak);
    spanf(bk);
    addrf(a_val_base);
    addrf(b_val_base);
    u64f(result_len);
    addrf(out_addr);
    return emitCreating(Op::ValueMerge, 0);
}

void
TraceRecorder::nestedIntersect(
    BackendStream s, streams::KeySpan s_keys,
    const std::vector<backend::NestedItem> &elems)
{
    flushRun();
    // The entries' spans are interned before the set's, which fixes
    // the arena layout the golden image pins.
    const std::uint64_t index = program_.nested_.size();
    for (const auto &elem : elems)
        program_.nested_.push_back({elem.infoAddr, elem.keyAddr,
                                    intern(elem.nested), elem.bound,
                                    elem.count});
    u32f(s);
    spanf(s_keys);
    u64f(index);
    u32f(static_cast<std::uint32_t>(elems.size()));
    emit(Op::NestedGroup);
}

void
TraceRecorder::consumeStream(BackendStream handle)
{
    flushRun();
    u32f(handle);
    emit(Op::ConsumeStream);
}

void
TraceRecorder::iterateStream(BackendStream handle, std::uint64_t n,
                             unsigned ops_per_element)
{
    flushRun();
    u32f(handle);
    u64f(n);
    emit(Op::IterateStream, static_cast<std::uint8_t>(ops_per_element));
}

} // namespace sc::trace
