/**
 * @file
 * Instruction set of the RSQP processing architecture (paper Table 1).
 *
 * Six instruction classes: control, scalar arithmetic, data transfer,
 * vector operations, vector duplication, and SpMV. Instructions execute
 * strictly in order ("each instruction can only start after the
 * previous instruction has completed"), from an instruction ROM, with
 * scalar results landing in a scalar register file and vector results
 * in the vector buffers (VB) or compressed vector buffers (CVB).
 */

#ifndef RSQP_ARCH_ISA_HPP
#define RSQP_ARCH_ISA_HPP

#include <string>
#include <vector>

#include "arch/machine_stats.hpp"
#include "common/types.hpp"

namespace rsqp
{

/** Opcodes of the RSQP ISA. */
enum class Opcode
{
    // Control
    Halt,        ///< stop execution
    Jump,        ///< pc = target
    JumpIfLess,  ///< if s[a] <  s[b]: pc = target
    JumpIfGeq,   ///< if s[a] >= s[b]: pc = target

    // Scalar arithmetic
    LoadConst,   ///< s[dst] = imm
    ScalarAdd,   ///< s[dst] = s[a] + s[b]
    ScalarSub,   ///< s[dst] = s[a] - s[b]
    ScalarMul,   ///< s[dst] = s[a] * s[b]
    ScalarDiv,   ///< s[dst] = s[a] / s[b]
    ScalarMax,   ///< s[dst] = max(s[a], s[b])
    ScalarSqrt,  ///< s[dst] = sqrt(s[a])
    ScalarAbs,   ///< s[dst] = |s[a]|

    // Data transfer (HBM <-> vector buffers)
    LoadVec,     ///< v[dst] = hbm[a]
    StoreVec,    ///< hbm[dst] = v[a]

    // Vector operations (vector engine)
    VecAxpby,    ///< v[dst] = s[sa] * v[a] + s[sb] * v[b]
    VecEwProd,   ///< v[dst] = v[a] .* v[b]
    VecEwRecip,  ///< v[dst] = 1 ./ v[a]
    VecEwMin,    ///< v[dst] = min(v[a], v[b])
    VecEwMax,    ///< v[dst] = max(v[a], v[b])
    VecCopy,     ///< v[dst] = v[a]
    VecSetConst, ///< v[dst] = imm (element-wise broadcast)
    VecDot,      ///< s[dst] = v[a] . v[b]
    VecAmax,     ///< s[dst] = max_i |v[a][i]| (reduction compare)

    // Vector duplication (VB -> CVB copies)
    VecDup,      ///< cvb[dst] <- v[a]

    // Sparse matrix-vector multiply
    SpMV,        ///< v[dst] = M[a] * cvb[cvbOf(M[a])]
};

/** Classify an opcode per Table 1. */
InstrClass classOf(Opcode op);

/** Mnemonic for disassembly and traces. */
const char* mnemonic(Opcode op);

/**
 * One instruction. Operand meaning depends on the opcode (see the
 * Opcode comments); unused fields are -1/0.
 */
struct Instruction
{
    Opcode op = Opcode::Halt;
    Index dst = -1;   ///< destination register/buffer/target pc
    Index a = -1;     ///< first source
    Index b = -1;     ///< second source
    Index sa = -1;    ///< scalar operand (alpha) for VecAxpby
    Index sb = -1;    ///< scalar operand (beta) for VecAxpby
    Real imm = 0.0;   ///< immediate for LoadConst / VecSetConst
    std::string comment;  ///< assembly comment for traces
};

/** A fully assembled program (the instruction ROM contents). */
struct Program
{
    std::vector<Instruction> code;

    std::size_t size() const { return code.size(); }

    /** Human-readable disassembly. */
    std::string disassemble() const;
};

} // namespace rsqp

#endif // RSQP_ARCH_ISA_HPP
