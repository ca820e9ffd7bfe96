#include "isa/stream_inst.hh"

#include <map>
#include <sstream>

#include "common/logging.hh"

namespace sc::isa {

namespace {

const std::map<Opcode, const char *> &
nameTable()
{
    static const std::map<Opcode, const char *> table = {
        {Opcode::SRead, "S_READ"},
        {Opcode::SVRead, "S_VREAD"},
        {Opcode::SFree, "S_FREE"},
        {Opcode::SSub, "S_SUB"},
        {Opcode::SSubC, "S_SUB.C"},
        {Opcode::SInter, "S_INTER"},
        {Opcode::SInterC, "S_INTER.C"},
        {Opcode::SVInter, "S_VINTER"},
        {Opcode::SMerge, "S_MERGE"},
        {Opcode::SMergeC, "S_MERGE.C"},
        {Opcode::SVMerge, "S_VMERGE"},
        {Opcode::SLdGfr, "S_LD_GFR"},
        {Opcode::SNestInter, "S_NESTINTER"},
        {Opcode::SFetch, "S_FETCH"},
        {Opcode::Li, "LI"},
        {Opcode::Mov, "MOV"},
        {Opcode::Add, "ADD"},
        {Opcode::Addi, "ADDI"},
        {Opcode::Sub, "SUB"},
        {Opcode::Mul, "MUL"},
        {Opcode::Fli, "FLI"},
        {Opcode::Beq, "BEQ"},
        {Opcode::Bne, "BNE"},
        {Opcode::Blt, "BLT"},
        {Opcode::Bge, "BGE"},
        {Opcode::Jmp, "JMP"},
        {Opcode::Halt, "HALT"},
    };
    return table;
}

/** Number of GPR operands each opcode prints. */
unsigned
gprOperandCount(Opcode op)
{
    switch (op) {
      case Opcode::SRead:
      case Opcode::SSub:
      case Opcode::SSubC:
      case Opcode::SInter:
      case Opcode::SInterC:
        return 4;
      case Opcode::SVRead:
        return 5;
      case Opcode::SVInter:
      case Opcode::SMerge:
      case Opcode::SMergeC:
      case Opcode::SVMerge:
      case Opcode::SLdGfr:
      case Opcode::SFetch:
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
        return 3;
      case Opcode::SNestInter:
      case Opcode::Mov:
      case Opcode::Addi:
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        return 2;
      case Opcode::SFree:
      case Opcode::Li:
        return 1;
      default:
        return 0;
    }
}

bool
hasImmediate(Opcode op)
{
    switch (op) {
      case Opcode::Li:
      case Opcode::Addi:
      case Opcode::Fli:
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Jmp:
        return true;
      default:
        return false;
    }
}

} // namespace

const char *
opcodeName(Opcode op)
{
    auto it = nameTable().find(op);
    if (it == nameTable().end())
        panic("unknown opcode %u", static_cast<unsigned>(op));
    return it->second;
}

Opcode
opcodeFromName(const std::string &mnemonic)
{
    for (const auto &[op, name] : nameTable())
        if (mnemonic == name)
            return op;
    return Opcode::NumOpcodes;
}

bool
isStreamOpcode(Opcode op)
{
    switch (op) {
      case Opcode::SRead:
      case Opcode::SVRead:
      case Opcode::SFree:
      case Opcode::SSub:
      case Opcode::SSubC:
      case Opcode::SInter:
      case Opcode::SInterC:
      case Opcode::SVInter:
      case Opcode::SMerge:
      case Opcode::SMergeC:
      case Opcode::SVMerge:
      case Opcode::SLdGfr:
      case Opcode::SNestInter:
      case Opcode::SFetch:
        return true;
      default:
        return false;
    }
}

bool
definesStream(Opcode op)
{
    switch (op) {
      case Opcode::SRead:
      case Opcode::SVRead:
      case Opcode::SSub:
      case Opcode::SInter:
      case Opcode::SMerge:
      case Opcode::SVMerge:
        return true;
      default:
        return false;
    }
}

bool
freesStream(Opcode op)
{
    return op == Opcode::SFree;
}

std::string
Inst::toString() const
{
    std::ostringstream os;
    os << opcodeName(op);
    bool first = true;
    auto sep = [&]() -> std::ostream & {
        os << (first ? " " : ", ");
        first = false;
        return os;
    };
    if (op == Opcode::SVMerge || op == Opcode::Fli)
        for (unsigned i = 0; i < (op == Opcode::SVMerge ? 2u : 1u); ++i)
            sep() << "f" << static_cast<unsigned>(f[i]);
    for (unsigned i = 0; i < gprOperandCount(op); ++i)
        sep() << "r" << static_cast<unsigned>(r[i]);
    if (op == Opcode::SVInter)
        sep() << streams::valueOpName(valueOp);
    else if (hasImmediate(op))
        sep() << imm;
    return os.str();
}

} // namespace sc::isa
