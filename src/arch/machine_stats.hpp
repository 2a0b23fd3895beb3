/**
 * @file
 * Cycle statistics of one simulated-device run.
 *
 * This header is deliberately leaf-level (it depends only on
 * common/types.hpp) so osqp/status.hpp can carry the device's cycle
 * counts in OsqpResult without the osqp library linking the arch
 * library: the statistics travel with the result, the machine that
 * produces them lives in src/arch.
 */

#ifndef RSQP_ARCH_MACHINE_STATS_HPP
#define RSQP_ARCH_MACHINE_STATS_HPP

#include <array>
#include <cstddef>

#include "common/types.hpp"

namespace rsqp
{

/** Instruction-class of an opcode (for per-class cycle statistics). */
enum class InstrClass
{
    Control,
    Scalar,
    DataTransfer,
    VectorOp,
    VectorDup,
    SpMV,
};

/** Execution statistics of one program run. */
struct MachineStats
{
    Count totalCycles = 0;
    Count instructions = 0;
    /** Cycles and instruction counts per Table 1 instruction class. */
    std::array<Count, 6> classCycles{};
    std::array<Count, 6> classCounts{};
    Count spmvPacks = 0;   ///< total matrix packs streamed from HBM
    Count dupCells = 0;    ///< total CVB cells written by VecDup

    Count cyclesOf(InstrClass cls) const
    {
        return classCycles[static_cast<std::size_t>(cls)];
    }
};

} // namespace rsqp

#endif // RSQP_ARCH_MACHINE_STATS_HPP
