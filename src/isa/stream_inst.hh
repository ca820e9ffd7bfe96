/**
 * @file
 * The stream ISA extension (Table 1) plus a minimal scalar ISA so
 * complete programs are expressible and executable by the functional
 * interpreter.
 *
 * Stream instructions name streams through general-purpose registers
 * holding stream IDs, exactly as in the paper; the scalar subset
 * (LI/ADD/BLT/...) stands in for the host ISA the extension plugs
 * into.
 */

#ifndef SPARSECORE_ISA_STREAM_INST_HH
#define SPARSECORE_ISA_STREAM_INST_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "streams/set_ops.hh"

namespace sc::isa {

/** All opcodes: the Table-1 stream extension plus host-scalar ops. */
enum class Opcode : unsigned
{
    // --- stream initialization / free (Table 1) ---
    SRead,      ///< S_READ  R0=addr R1=len R2=sid R3=priority
    SVRead,     ///< S_VREAD R0=addr R1=len R2=sid R3=valaddr R4=prio
    SFree,      ///< S_FREE  R0=sid
    // --- stream computation ---
    SSub,       ///< S_SUB     R0,R1=sids R2=out sid R3=bound
    SSubC,      ///< S_SUB.C   R0,R1=sids R2=count out R3=bound
    SInter,     ///< S_INTER   R0,R1=sids R2=out sid R3=bound
    SInterC,    ///< S_INTER.C R0,R1=sids R2=count out R3=bound
    SVInter,    ///< S_VINTER  R0,R1=sids R2=result IMM=value op
    SMerge,     ///< S_MERGE   R0,R1=sids R2=out sid
    SMergeC,    ///< S_MERGE.C R0,R1=sids R2=count out
    SVMerge,    ///< S_VMERGE  F0,F1=scales R0,R1=sids R2=out sid
    SLdGfr,     ///< S_LD_GFR  R0,R1,R2 -> GFR0..2
    SNestInter, ///< S_NESTINTER R0=sid R1=result
    // --- stream element access ---
    SFetch,     ///< S_FETCH R0=sid R1=offset R2=result (EOS at end)
    // --- host scalar subset ---
    Li,         ///< R0 <- IMM
    Mov,        ///< R0 <- R1
    Add,        ///< R0 <- R1 + R2
    Addi,       ///< R0 <- R1 + IMM
    Sub,        ///< R0 <- R1 - R2
    Mul,        ///< R0 <- R1 * R2
    Fli,        ///< F0 <- IMM reinterpreted as double via table
    Beq,        ///< if R0 == R1 goto pc+IMM
    Bne,        ///< if R0 != R1 goto pc+IMM
    Blt,        ///< if R0 <  R1 goto pc+IMM (unsigned)
    Bge,        ///< if R0 >= R1 goto pc+IMM (unsigned)
    Jmp,        ///< goto pc+IMM
    Halt,       ///< stop execution
    NumOpcodes
};

/** Mnemonic ("S_INTER", "ADD", ...). */
const char *opcodeName(Opcode op);
/** Reverse lookup; returns NumOpcodes for unknown mnemonics. */
Opcode opcodeFromName(const std::string &mnemonic);

/** True for the Table-1 stream extension opcodes. */
bool isStreamOpcode(Opcode op);

/** True when the opcode allocates a stream register (S_READ/S_VREAD
 *  and the producing set ops) — the defines the pressure analysis
 *  (analysis/summary.hh) counts. */
bool definesStream(Opcode op);
/** True when the opcode releases a stream register (S_FREE). */
bool freesStream(Opcode op);

/** Number of general registers in the model. */
constexpr unsigned numGprs = 32;
/** Number of floating-point registers in the model. */
constexpr unsigned numFprs = 8;
/** Number of stream registers (§3.2: the design uses 16). */
constexpr unsigned numStreamRegs = 16;

/** One decoded instruction. */
struct Inst
{
    Opcode op = Opcode::Halt;
    std::array<std::uint8_t, 5> r{}; ///< GPR operand indices
    std::array<std::uint8_t, 2> f{}; ///< FPR operand indices
    std::int64_t imm = 0;            ///< immediate / branch offset
    streams::ValueOp valueOp = streams::ValueOp::Mac; ///< S_VINTER IMM

    std::string toString() const;
};

/** A program: a flat instruction sequence (pc = index). */
using Program = std::vector<Inst>;

} // namespace sc::isa

#endif // SPARSECORE_ISA_STREAM_INST_HH
