#include "trace/bytecode.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "trace/wire.hh"

namespace sc::trace {

namespace {

constexpr char bytecodeMagic[4] = {'S', 'C', 'B', 'C'};

/** Wire bytes of one nested entry: infoAddr, keyAddr, span offset
 *  (u64 each), span length, bound (u32 each), count (u64). */
constexpr std::size_t nestedEntryWireBytes = 40;

/** [off, off+len) lies inside [0, size), without wrapping for any
 *  64-bit `off`. */
bool
rangeFits(std::uint64_t off, std::uint64_t len, std::size_t size)
{
    return off <= size && len <= size - off;
}

/**
 * walkBytecode handler validating a program (finalize() runs it once
 * per capture or load): every operand in range — handles below
 * handleCount or sentinel, spans inside the arena, nested groups
 * inside the entry table, set-op kinds in range — so the replay loops
 * index unchecked; and no handle count past the handles the code
 * uses, so an image cannot make a replay size its handle map from a
 * forged header.
 */
struct Auditor
{
    const BytecodeProgram &bc;
    std::size_t instructions = 0;
    std::size_t events = 0;
    /** SU operations: set ops, value ops and nested entries. */
    std::size_t suOps = 0;
    /** One past the largest non-sentinel handle seen. */
    std::uint64_t handlesUsed = 0;

    void
    checkHandle(TraceStream h)
    {
        if (h == noTraceStream)
            return;
        if (h >= bc.handleCount())
            panic("bytecode handle %u out of range (%u created)", h,
                  bc.handleCount());
        handlesUsed = std::max<std::uint64_t>(handlesUsed, h + 1ull);
    }
    void
    checkSpan(SpanRef s) const
    {
        if (!rangeFits(s.off, s.len, bc.arenaKeys()))
            panic("bytecode span [%llu, +%u) outside the arena",
                  static_cast<unsigned long long>(s.off), s.len);
    }
    void
    checkKind(std::uint8_t kind) const
    {
        if (kind >= streams::numSetOpKinds)
            panic("bytecode set-op kind %u out of range", kind);
    }
    void
    count(std::size_t n = 1)
    {
        ++instructions;
        events += n;
    }
    /** Panic unless the walked totals match the program header. */
    void
    verifyCounts() const
    {
        if (instructions != bc.numInstructions() ||
            events != bc.numEvents())
            panic("bytecode counts disagree with header: %zu/%zu "
                  "instructions, %zu/%zu events",
                  instructions, bc.numInstructions(), events,
                  bc.numEvents());
        if (bc.handleCount() > handlesUsed)
            panic("bytecode header claims %u handles, its code uses "
                  "%llu",
                  bc.handleCount(),
                  static_cast<unsigned long long>(handlesUsed));
    }

    void scalarOps(std::uint64_t, std::uint32_t repeat) { count(repeat); }
    void scalarBranch(std::uint64_t, bool) { count(); }
    void scalarLoad(Addr) { count(); }
    void
    streamLoad(TraceStream res, Addr, std::uint64_t, std::uint8_t,
               SpanRef s0)
    {
        checkHandle(res);
        checkSpan(s0);
        count();
    }
    void
    streamLoadKv(TraceStream res, Addr, Addr, std::uint64_t,
                 std::uint8_t, SpanRef s0)
    {
        checkHandle(res);
        checkSpan(s0);
        count();
    }
    void
    streamFree(TraceStream a)
    {
        checkHandle(a);
        count();
    }
    void
    setOp(TraceStream res, std::uint8_t kind, TraceStream a,
          TraceStream b, SpanRef s0, SpanRef s1, Key, SpanRef s2, Addr)
    {
        checkKind(kind);
        checkHandle(res);
        checkHandle(a);
        checkHandle(b);
        checkSpan(s0);
        checkSpan(s1);
        checkSpan(s2);
        count();
        ++suOps;
    }
    void
    setOpCount(std::uint8_t kind, TraceStream a, TraceStream b,
               SpanRef s0, SpanRef s1, Key, std::uint64_t)
    {
        checkKind(kind);
        checkHandle(a);
        checkHandle(b);
        checkSpan(s0);
        checkSpan(s1);
        count();
        ++suOps;
    }
    void
    valueIntersect(bool, TraceStream a, TraceStream b, SpanRef s0,
                   SpanRef s1, Addr, Addr, SpanRef s2, SpanRef s3)
    {
        checkHandle(a);
        checkHandle(b);
        checkSpan(s0);
        checkSpan(s1);
        checkSpan(s2);
        checkSpan(s3);
        count();
        ++suOps;
    }
    void
    valueMerge(TraceStream res, TraceStream a, TraceStream b,
               SpanRef s0, SpanRef s1, Addr, Addr, std::uint64_t, Addr)
    {
        checkHandle(res);
        checkHandle(a);
        checkHandle(b);
        checkSpan(s0);
        checkSpan(s1);
        count();
        ++suOps;
    }
    void
    nestedGroup(TraceStream a, SpanRef s0, std::uint64_t index,
                std::uint32_t n)
    {
        checkHandle(a);
        checkSpan(s0);
        if (!rangeFits(index, n, bc.numNestedEntries()))
            panic("bytecode nested group [%llu, +%u) out of range",
                  static_cast<unsigned long long>(index), n);
        count();
        suOps += n;
    }
    void
    consumeStream(TraceStream a)
    {
        checkHandle(a);
        count();
    }
    void
    iterateStream(TraceStream a, std::uint64_t, std::uint8_t)
    {
        checkHandle(a);
        count();
    }
};

} // namespace

std::size_t
BytecodeProgram::memoryBytes() const
{
    return code_.capacity() * sizeof(Word) +
           arena_.capacity() * sizeof(Key) +
           nested_.capacity() * sizeof(NestedEntry);
}

std::string
BytecodeProgram::serialize() const
{
    std::string out;
    out.reserve(64 + arena_.size() * sizeof(Key) +
                nested_.size() * nestedEntryWireBytes +
                code_.size() * sizeof(Word));
    out.append(bytecodeMagic, sizeof(bytecodeMagic));
    wire::put<std::uint32_t>(out, bytecodeFormatVersion);
    wire::put<std::uint32_t>(out, handleCount_);
    wire::put<std::uint64_t>(out, numInstructions_);
    wire::put<std::uint64_t>(out, numEvents_);

    wire::put<std::uint64_t>(out, arena_.size());
    wire::putArray(out, arena_.data(), arena_.size());

    wire::put<std::uint64_t>(out, nested_.size());
    for (const NestedEntry &ne : nested_) {
        wire::put<std::uint64_t>(out, ne.infoAddr);
        wire::put<std::uint64_t>(out, ne.keyAddr);
        wire::put<std::uint64_t>(out, ne.nested.off);
        wire::put<std::uint32_t>(out, ne.nested.len);
        wire::put<std::uint32_t>(out, ne.bound);
        wire::put<std::uint64_t>(out, ne.count);
    }

    wire::put<std::uint64_t>(out, code_.size());
    wire::putArray(out, code_.data(), code_.size());
    return out;
}

BytecodeProgram
BytecodeProgram::deserialize(std::string_view bytes)
{
    wire::Reader r(bytes);
    char magic[4];
    for (char &c : magic)
        c = static_cast<char>(r.get<std::uint8_t>());
    if (std::memcmp(magic, bytecodeMagic, sizeof(bytecodeMagic)) != 0)
        panic("not a SparseCore bytecode program (bad magic)");
    const auto version = r.get<std::uint32_t>();
    if (version != bytecodeFormatVersion)
        panic("bytecode format version %u, expected %u", version,
              bytecodeFormatVersion);

    BytecodeProgram bc;
    bc.handleCount_ = r.get<std::uint32_t>();
    bc.numInstructions_ = r.get<std::uint64_t>();
    bc.numEvents_ = r.get<std::uint64_t>();

    // Every count is checked against the bytes left before anything
    // is sized from it.
    const std::size_t arena_len = r.getCount(sizeof(Key));
    bc.arena_.resize(arena_len);
    r.getArray(bc.arena_.data(), arena_len);

    const std::size_t nested_len = r.getCount(nestedEntryWireBytes);
    bc.nested_.reserve(nested_len);
    for (std::size_t i = 0; i < nested_len; ++i) {
        NestedEntry ne;
        ne.infoAddr = r.get<std::uint64_t>();
        ne.keyAddr = r.get<std::uint64_t>();
        ne.nested.off = r.get<std::uint64_t>();
        ne.nested.len = r.get<std::uint32_t>();
        if (!rangeFits(ne.nested.off, ne.nested.len, bc.arena_.size()))
            panic("bytecode span [%llu, +%u) outside the arena",
                  static_cast<unsigned long long>(ne.nested.off),
                  ne.nested.len);
        ne.bound = r.get<std::uint32_t>();
        ne.count = r.get<std::uint64_t>();
        bc.nested_.push_back(ne);
    }

    const std::size_t code_len = r.getCount(sizeof(Word));
    bc.code_.resize(code_len);
    r.getArray(bc.code_.data(), code_len);
    if (!r.done())
        panic("trailing bytes after the bytecode image");

    // Re-walk the code once, bounds-checked, to validate every
    // operand against the loaded tables (the recorder guarantees this
    // for its own output; a deserialized image has to earn the
    // unchecked replay loops).
    bc.finalize();
    return bc;
}

void
BytecodeProgram::finalize()
{
    Auditor a{*this};
    walkBytecode</*BoundsChecked=*/true>(*this, a);
    a.verifyCounts();
    numSuOps_ = a.suOps;
}

void
BytecodeProgram::saveFile(const std::string &path) const
{
    const std::string bytes = serialize();
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        panic("cannot write bytecode file '%s'", path.c_str());
    const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (n != bytes.size())
        panic("short write to bytecode file '%s'", path.c_str());
}

BytecodeProgram
BytecodeProgram::loadFile(const std::string &path)
{
    return deserialize(wire::readWholeFile(path));
}

} // namespace sc::trace
