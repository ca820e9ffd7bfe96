/**
 * @file
 * SCBC, the one program form: the call sequence an algorithm issues
 * to an ExecBackend, held as one flat, cache-resident buffer of
 * fixed-layout opcodes. TraceRecorder (trace/recorder.hh) encodes it
 * while the capture runs; the devirtualized replay loops
 * (trace/replay.cc), the lifetime checker and the cost summaries
 * walk it; serialize() writes it as the one on-disk image, read back
 * by tools/scverify.
 *
 * The code packs each backend call into 32-bit words: delta-encoded
 * addresses (zigzag against a running register), implicit
 * creation-order stream ids, and key-span references into an owned
 * arena whose payloads are interned by content, so a neighbor list
 * loaded at every recursion level is stored once. Replay touches a
 * fraction of the memory a per-call record would and decodes with
 * one predictable switch per instruction. Runs of identical
 * consecutive scalarOps calls fuse into a single run-length
 * instruction whose replay re-issues each call, keeping per-call
 * cost-model semantics (and therefore cycles) bit-identical to
 * direct execution.
 *
 * A program is self-contained: it owns its arena and nested-entry
 * table, so one capture per (app, dataset) replays onto any backend
 * and serializes standalone ("SCBC" image).
 *
 * Instruction encoding (see walkBytecode for the decoder, which is
 * the layout's single source of truth shared with the recorder):
 *
 *   header word: op(8) | aux(8) | flags(8) | reserved(8)
 *     flagWide           every u64-class operand takes 2 words
 *     flagExplicitResult result handle follows as a trailing word
 *                        (otherwise: next creation-order id; the
 *                        recorder never sets it, images may)
 *   operand classes:
 *     u64-class  zigzag address deltas, lengths/counts, span offsets
 *                (1 word narrow, 2 words wide)
 *     u32        stream handles, span lengths, bounds, run counts
 */

#ifndef SPARSECORE_TRACE_BYTECODE_HH
#define SPARSECORE_TRACE_BYTECODE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "streams/set_ops.hh"

namespace sc::trace {

/** Reference to interned key data: [off, off+len) in the arena. */
struct SpanRef
{
    std::uint64_t off = 0;
    std::uint32_t len = 0;
};

/** One nested-intersection element, with its functional count. */
struct NestedEntry
{
    Addr infoAddr = 0; ///< CSR vertex-array entry address
    Addr keyAddr = 0;  ///< nested edge list base address
    SpanRef nested;    ///< nested edge list keys
    Key bound = noBound;
    std::uint64_t count = 0; ///< functional intersection count
};

/** Program-local stream handle (dense, assigned in creation order). */
using TraceStream = std::uint32_t;
constexpr TraceStream noTraceStream = ~TraceStream{0};

/** Serialized SCBC format version (bump on any layout change). */
constexpr std::uint32_t bytecodeFormatVersion = 1;

/** Bytecode opcodes: one per ExecBackend hook, plus the fused
 *  scalar-ops run. */
enum class Op : std::uint8_t
{
    ScalarOps,           ///< [n]
    ScalarOpsRun,        ///< [count][n] — count identical calls
    ScalarBranch,        ///< aux=taken, [pcDelta]
    ScalarLoad,          ///< [addrDelta]
    StreamLoad,          ///< aux=prio, [addrDelta][len][s0][res?]
    StreamLoadKv,        ///< aux=prio, [kD][vD][len][s0][res?]
    StreamFree,          ///< [a]
    SetOp,               ///< aux=kind, [a][b][s0][s1][bound][s2][outD][res?]
    SetOpCount,          ///< aux=kind, [a][b][s0][s1][bound][n]
    ValueIntersect,      ///< [a][b][s0][s1][aD][bD][s2][s3]
    DenseValueIntersect, ///< as ValueIntersect
    ValueMerge,          ///< [a][b][s0][s1][aD][bD][n][outD][res?]
    NestedGroup,         ///< [a][s0][entryIndex][entryCount]
    ConsumeStream,       ///< [a]
    IterateStream,       ///< aux=ops, [a][n]
    NumOps
};

using Word = std::uint32_t;

constexpr Word opMask = 0xff;
constexpr unsigned auxShift = 8;
constexpr Word flagWide = Word{1} << 16;
constexpr Word flagExplicitResult = Word{1} << 17;

/** Zigzag a two's-complement u64 delta into an unsigned code. */
constexpr std::uint64_t
zigzagEncode(std::uint64_t delta)
{
    return (delta << 1) ^ (std::uint64_t{0} - (delta >> 63));
}

constexpr std::uint64_t
zigzagDecode(std::uint64_t code)
{
    return (code >> 1) ^ (std::uint64_t{0} - (code & 1));
}

/**
 * One captured program: flat code + owned key arena + nested-entry
 * table. Immutable once TraceRecorder::takeTrace() or deserialize()
 * returns it; concurrent replays of one program are safe.
 */
class BytecodeProgram
{
  public:
    BytecodeProgram() = default;

    const std::vector<Word> &code() const { return code_; }
    streams::KeySpan
    span(const SpanRef &ref) const
    {
        return {arena_.data() + ref.off, ref.len};
    }
    const NestedEntry &nestedEntry(std::size_t i) const
    {
        return nested_[i];
    }
    std::size_t numNestedEntries() const { return nested_.size(); }
    TraceStream handleCount() const { return handleCount_; }

    // ---------------- statistics ----------------
    std::size_t numInstructions() const { return numInstructions_; }
    /** Backend calls captured (a fused run counts each call). */
    std::size_t numEvents() const { return numEvents_; }
    /** Operations a SparseCore replay costs on its SUs: set ops,
     *  counting set ops, value intersections and merges, and one per
     *  nested-intersection entry. */
    std::size_t numSuOps() const { return numSuOps_; }
    std::size_t codeBytes() const { return code_.size() * sizeof(Word); }
    std::size_t arenaKeys() const { return arena_.size(); }
    std::size_t arenaBytes() const { return arena_.size() * sizeof(Key); }
    /** Total owned bytes (code + arena + nested entries). */
    std::size_t memoryBytes() const;

    // ---------------- serialization ----------------
    /** Versioned standalone binary image ("SCBC", little-endian). */
    std::string serialize() const;
    /**
     * Parse an SCBC image; throws SimError on malformed or mismatched
     * input. Header counts are checked against the bytes that follow
     * before anything is allocated, and the code is validated by a
     * bounds-checked walk, so no image can make the loader allocate
     * more than it holds or read outside it, nor make a replay size
     * its handle map past the handles the code uses.
     */
    static BytecodeProgram deserialize(std::string_view bytes);
    void saveFile(const std::string &path) const;
    static BytecodeProgram loadFile(const std::string &path);

  private:
    friend class TraceRecorder;

    /**
     * One bounds-checked walk that validates the code. Panics unless
     * every operand is in range (handles below handleCount or
     * sentinel, spans inside the arena, nested groups inside the
     * entry table), the header counts match, and handleCount is at
     * most one past the largest handle the code defines or names.
     * Recorder output satisfies this by construction; deserialize()
     * runs it so the unchecked replay loops can trust any loaded
     * image.
     */
    void finalize();

    std::vector<Word> code_;
    std::vector<Key> arena_;
    std::vector<NestedEntry> nested_;
    TraceStream handleCount_ = 0;
    std::size_t numInstructions_ = 0;
    std::size_t numEvents_ = 0;
    std::size_t numSuOps_ = 0; ///< counted by finalize()
};

/**
 * Decode the program, invoking one handler method per instruction.
 * This is the single decoder the replay loops, the validator, the
 * lifetime checker and the cost summary share, so the encoding has
 * exactly one reader.
 *
 * `BoundsChecked` walks panic on an operand read past the end of the
 * code; only validation (BytecodeProgram::finalize) needs them. Every
 * other walk runs on a validated program, so its instantiations carry
 * no bounds branches.
 *
 * The handler mirrors the ExecBackend surface with program-level
 * operands (TraceStream handles, SpanRefs into program.span()):
 *
 *   scalarOps(n, repeat)           repeat identical scalarOps(n) calls
 *   scalarBranch(pc, taken)
 *   scalarLoad(addr)
 *   streamLoad(res, addr, len, prio, s0)
 *   streamLoadKv(res, kAddr, vAddr, len, prio, s0)
 *   streamFree(a)
 *   setOp(res, kind, a, b, s0, s1, bound, s2, outAddr)
 *   setOpCount(kind, a, b, s0, s1, bound, n)
 *   valueIntersect(dense, a, b, s0, s1, aVal, bVal, s2, s3)
 *   valueMerge(res, a, b, s0, s1, aVal, bVal, n, outAddr)
 *   nestedGroup(a, s0, entryIndex, entryCount)
 *   consumeStream(a)
 *   iterateStream(a, n, ops)
 */
template <bool BoundsChecked = false, typename Handler>
void
walkBytecode(const BytecodeProgram &program, Handler &&handler)
{
    const Word *p = program.code().data();
    const Word *const end = p + program.code().size();
    std::uint64_t last_addr = 0;
    TraceStream next_result = 0;

    while (p < end) {
        const Word hdr = *p++;
        const auto op = static_cast<Op>(hdr & opMask);
        const auto aux =
            static_cast<std::uint8_t>((hdr >> auxShift) & 0xff);
        const bool wide = (hdr & flagWide) != 0;

        auto word = [&]() -> Word {
            if constexpr (BoundsChecked) {
                if (p == end)
                    panic("bytecode operands run past the end of the "
                          "%zu-word code",
                          program.code().size());
            }
            return *p++;
        };
        // u64-class operand: 1 word narrow, low/high pair wide.
        auto u64 = [&]() -> std::uint64_t {
            std::uint64_t v = word();
            if (wide)
                v |= std::uint64_t{word()} << 32;
            return v;
        };
        auto addr = [&]() -> std::uint64_t {
            last_addr += zigzagDecode(u64());
            return last_addr;
        };
        auto span = [&]() -> SpanRef {
            SpanRef ref;
            ref.off = u64();
            ref.len = word();
            return ref;
        };
        auto handle = [&]() -> TraceStream { return word(); };
        // Trailing result handle: implicit creation-order id unless
        // the explicit form is flagged (never by the recorder).
        auto result = [&]() -> TraceStream {
            if (hdr & flagExplicitResult)
                return word();
            return next_result++;
        };

        switch (op) {
        case Op::ScalarOps:
            handler.scalarOps(u64(), 1);
            break;
        case Op::ScalarOpsRun: {
            const Word count = word();
            handler.scalarOps(u64(), count);
            break;
        }
        case Op::ScalarBranch:
            handler.scalarBranch(addr(), aux != 0);
            break;
        case Op::ScalarLoad:
            handler.scalarLoad(addr());
            break;
        case Op::StreamLoad: {
            const std::uint64_t a0 = addr();
            const std::uint64_t len = u64();
            const SpanRef s0 = span();
            handler.streamLoad(result(), a0, len, aux, s0);
            break;
        }
        case Op::StreamLoadKv: {
            const std::uint64_t a0 = addr();
            const std::uint64_t a1 = addr();
            const std::uint64_t len = u64();
            const SpanRef s0 = span();
            handler.streamLoadKv(result(), a0, a1, len, aux, s0);
            break;
        }
        case Op::StreamFree:
            handler.streamFree(handle());
            break;
        case Op::SetOp: {
            const TraceStream a = handle();
            const TraceStream b = handle();
            const SpanRef s0 = span();
            const SpanRef s1 = span();
            const Key bound = word();
            const SpanRef s2 = span();
            const std::uint64_t out_addr = addr();
            handler.setOp(result(), aux, a, b, s0, s1, bound, s2,
                          out_addr);
            break;
        }
        case Op::SetOpCount: {
            const TraceStream a = handle();
            const TraceStream b = handle();
            const SpanRef s0 = span();
            const SpanRef s1 = span();
            const Key bound = word();
            handler.setOpCount(aux, a, b, s0, s1, bound, u64());
            break;
        }
        case Op::ValueIntersect:
        case Op::DenseValueIntersect: {
            const TraceStream a = handle();
            const TraceStream b = handle();
            const SpanRef s0 = span();
            const SpanRef s1 = span();
            const std::uint64_t a_val = addr();
            const std::uint64_t b_val = addr();
            const SpanRef s2 = span();
            const SpanRef s3 = span();
            handler.valueIntersect(op == Op::DenseValueIntersect, a,
                                   b, s0, s1, a_val, b_val, s2, s3);
            break;
        }
        case Op::ValueMerge: {
            const TraceStream a = handle();
            const TraceStream b = handle();
            const SpanRef s0 = span();
            const SpanRef s1 = span();
            const std::uint64_t a_val = addr();
            const std::uint64_t b_val = addr();
            const std::uint64_t n = u64();
            const std::uint64_t out_addr = addr();
            handler.valueMerge(result(), a, b, s0, s1, a_val, b_val,
                               n, out_addr);
            break;
        }
        case Op::NestedGroup: {
            const TraceStream a = handle();
            const SpanRef s0 = span();
            const std::uint64_t index = u64();
            const Word count = word();
            handler.nestedGroup(a, s0, index, count);
            break;
        }
        case Op::ConsumeStream:
            handler.consumeStream(handle());
            break;
        case Op::IterateStream: {
            const TraceStream a = handle();
            handler.iterateStream(a, u64(), aux);
            break;
        }
        case Op::NumOps:
        default:
            panic("bytecode: corrupt opcode %u",
                  static_cast<unsigned>(op));
        }
    }
}

} // namespace sc::trace

#endif // SPARSECORE_TRACE_BYTECODE_HH
