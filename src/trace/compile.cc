#include "trace/compile.hh"

namespace sc::trace {

namespace {

/**
 * Staged encoder for one instruction. Operands accumulate in call
 * order (which must mirror walkBytecode's read order exactly — the
 * decoder is the layout's source of truth); flush() then decides the
 * wide flag from the staged u64-class values and emits header +
 * operands in one go.
 */
class Emitter
{
  public:
    explicit Emitter(std::vector<Word> &code) : code_(code) {}

    void
    u64f(std::uint64_t value)
    {
        stage(value, true);
    }
    void
    u32f(std::uint32_t value)
    {
        stage(value, false);
    }
    /** Zigzag delta against the running address register (the decoder
     *  keeps the twin register; wrapping u64 arithmetic, no UB). */
    void
    addrf(std::uint64_t addr)
    {
        u64f(zigzagEncode(addr - last_addr_));
        last_addr_ = addr;
    }
    void
    spanf(const SpanRef &ref)
    {
        u64f(ref.off);
        u32f(ref.len);
    }

    void
    flush(Op op, std::uint8_t aux)
    {
        flushResult(op, aux, false, 0);
    }

    void
    flushResult(Op op, std::uint8_t aux, bool explicit_result,
                TraceStream result)
    {
        bool wide = false;
        for (unsigned i = 0; i < nfields_; ++i)
            if (fields_[i].u64_class &&
                fields_[i].value > 0xffffffffull) {
                wide = true;
                break;
            }
        Word hdr = static_cast<Word>(op) |
                   (Word{aux} << auxShift) | (wide ? flagWide : 0) |
                   (explicit_result ? flagExplicitResult : 0);
        code_.push_back(hdr);
        for (unsigned i = 0; i < nfields_; ++i) {
            const Operand &f = fields_[i];
            code_.push_back(static_cast<Word>(f.value));
            if (f.u64_class && wide)
                code_.push_back(static_cast<Word>(f.value >> 32));
        }
        if (explicit_result)
            code_.push_back(result);
        nfields_ = 0;
    }

  private:
    struct Operand
    {
        std::uint64_t value;
        bool u64_class;
    };

    void
    stage(std::uint64_t value, bool u64_class)
    {
        fields_[nfields_++] = {value, u64_class};
    }

    std::vector<Word> &code_;
    std::uint64_t last_addr_ = 0;
    Operand fields_[16];
    unsigned nfields_ = 0;
};

} // namespace

BytecodeProgram
compileTrace(const Trace &trace)
{
    BytecodeProgram bc;
    const streams::KeySpan arena = trace.arenaSpan();
    bc.arena_.assign(arena.data(), arena.data() + arena.size());
    bc.nested_ = trace.nestedEntries();
    bc.handleCount_ = trace.handleCount();
    bc.numSourceEvents_ = trace.numEvents();

    // Per event: header + a few operand words. 4 is a generous
    // average (scalar events take 2); one reserve, no growth churn.
    bc.code_.reserve(trace.numEvents() * 4);

    Emitter em(bc.code_);
    const std::vector<Event> &events = trace.events();
    // Next implicit creation-order result id; events whose recorded
    // result matches it encode without a result word, and the counter
    // advances only on that implicit form (mirroring the decoder).
    TraceStream next_implicit = 0;
    std::size_t num_instructions = 0;

    auto result_form = [&](TraceStream result) {
        const bool explicit_result = result != next_implicit;
        if (!explicit_result)
            ++next_implicit;
        return explicit_result;
    };

    for (std::size_t i = 0; i < events.size(); ++i) {
        const Event &e = events[i];
        ++num_instructions;
        switch (e.kind) {
        case EventKind::ScalarOps: {
            std::uint64_t run = 1;
            while (i + run < events.size() &&
                   events[i + run].kind == EventKind::ScalarOps &&
                   events[i + run].n == e.n && run < 0xffffffffull)
                ++run;
            if (run > 1) {
                em.u32f(static_cast<std::uint32_t>(run));
                em.u64f(e.n);
                em.flush(Op::ScalarOpsRun, 0);
                i += run - 1;
            } else {
                em.u64f(e.n);
                em.flush(Op::ScalarOps, 0);
            }
            break;
        }
        case EventKind::ScalarBranch:
            em.addrf(e.addr0);
            em.flush(Op::ScalarBranch, e.aux != 0 ? 1 : 0);
            break;
        case EventKind::ScalarLoad:
            em.addrf(e.addr0);
            em.flush(Op::ScalarLoad, 0);
            break;
        case EventKind::StreamLoad:
            em.addrf(e.addr0);
            em.u64f(e.n);
            em.spanf(e.s0);
            em.flushResult(Op::StreamLoad, e.aux,
                           result_form(e.result), e.result);
            break;
        case EventKind::StreamLoadKv:
            em.addrf(e.addr0);
            em.addrf(e.addr1);
            em.u64f(e.n);
            em.spanf(e.s0);
            em.flushResult(Op::StreamLoadKv, e.aux,
                           result_form(e.result), e.result);
            break;
        case EventKind::StreamFree:
            em.u32f(e.a);
            em.flush(Op::StreamFree, 0);
            break;
        case EventKind::SetOp:
            em.u32f(e.a);
            em.u32f(e.b);
            em.spanf(e.s0);
            em.spanf(e.s1);
            em.u32f(e.bound);
            em.spanf(e.s2);
            em.addrf(e.addr0);
            em.flushResult(Op::SetOp, e.aux, result_form(e.result),
                           e.result);
            break;
        case EventKind::SetOpCount:
            em.u32f(e.a);
            em.u32f(e.b);
            em.spanf(e.s0);
            em.spanf(e.s1);
            em.u32f(e.bound);
            em.u64f(e.n);
            em.flush(Op::SetOpCount, e.aux);
            break;
        case EventKind::ValueIntersect:
        case EventKind::DenseValueIntersect:
            em.u32f(e.a);
            em.u32f(e.b);
            em.spanf(e.s0);
            em.spanf(e.s1);
            em.addrf(e.addr0);
            em.addrf(e.addr1);
            em.spanf(e.s2);
            em.spanf(e.s3);
            em.flush(e.kind == EventKind::DenseValueIntersect
                         ? Op::DenseValueIntersect
                         : Op::ValueIntersect,
                     0);
            break;
        case EventKind::ValueMerge:
            em.u32f(e.a);
            em.u32f(e.b);
            em.spanf(e.s0);
            em.spanf(e.s1);
            em.addrf(e.addr0);
            em.addrf(e.addr1);
            em.u64f(e.n);
            em.addrf(e.addr2);
            em.flushResult(Op::ValueMerge, 0, result_form(e.result),
                           e.result);
            break;
        case EventKind::NestedGroup:
            em.u32f(e.a);
            em.spanf(e.s0);
            em.u64f(e.n);
            em.u32f(e.aux2);
            em.flush(Op::NestedGroup, 0);
            break;
        case EventKind::ConsumeStream:
            em.u32f(e.a);
            em.flush(Op::ConsumeStream, 0);
            break;
        case EventKind::IterateStream:
            em.u32f(e.a);
            em.u64f(e.n);
            em.flush(Op::IterateStream, e.aux);
            break;
        case EventKind::NumKinds:
            panic("bytecode compile: corrupt event kind");
        }
    }

    bc.numInstructions_ = num_instructions;
    bc.code_.shrink_to_fit();

    // One fused finalize pass replaces all replay-time bounds checks
    // (it re-decodes with the shared walker, so it also proves
    // encoder and decoder agree on this program's layout) and
    // aggregates the cost-model updates the whole program makes
    // (EventProfile), which stateless substrates apply wholesale.
    bc.finalize();
    return bc;
}

} // namespace sc::trace
