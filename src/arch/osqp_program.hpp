/**
 * @file
 * Lowering of the complete OSQP solver (Algorithm 1 with the PCG inner
 * solver of Algorithm 2) onto the RSQP instruction set.
 *
 * The generated program runs the whole ADMM loop on the accelerator:
 * KKT solves via matrix-free PCG (SpMV with P, A, A'), relaxation,
 * projection and dual update on the vector engine, unscaled residual
 * termination checks, adaptive-rho updates (including the on-device
 * preconditioner rebuild via an element-squared A' matrix), and the
 * Table 1 control instruction that exits the loop once the residuals
 * drop below tolerance.
 *
 * The numeric trajectory matches the host-side OsqpSolver with the
 * IndirectPcg backend (same operations in the same order), which is the
 * basis of the simulator-vs-reference integration tests. Like the
 * host's IndirectKktSolver, the program keeps PCG's warm start x~ in
 * its vector buffer from one run to the next: a fresh machine's first
 * run starts from zero, and a later run starts from the last x~ unless
 * the host zeroes it (OsqpDeviceProgram::vecXTilde).
 */

#ifndef RSQP_ARCH_OSQP_PROGRAM_HPP
#define RSQP_ARCH_OSQP_PROGRAM_HPP

#include "arch/machine.hpp"
#include "arch/program_builder.hpp"
#include "osqp/problem.hpp"
#include "osqp/scaling.hpp"
#include "osqp/settings.hpp"

namespace rsqp
{

/** Ids of the four packed matrices the program multiplies with. */
struct OsqpMatrixIds
{
    Index p = -1;     ///< full symmetric P (n x n)
    Index a = -1;     ///< A (m x n)
    Index at = -1;    ///< A' (n x m)
    Index atSq = -1;  ///< A' with squared values (preconditioner rebuild)
};

/** Everything the host needs to run the program and read results. */
struct OsqpDeviceProgram
{
    Program program;

    // HBM regions written by the host before run().
    Index hbmX0 = -1;  ///< initial x (scaled space)
    Index hbmY0 = -1;
    Index hbmZ0 = -1;
    Index hbmQ = -1;   ///< scaled q (parametric updates)
    Index hbmL = -1;   ///< scaled l
    Index hbmU = -1;   ///< scaled u
    Index hbmDiagP = -1;  ///< diag(P_scaled) + sigma (matrix updates)
    Index hbmRhoScale = -1;  ///< per-constraint rho class multipliers

    // HBM regions read back after run() (scaled space).
    Index hbmXOut = -1;
    Index hbmYOut = -1;
    Index hbmZOut = -1;

    /** PCG warm start x~: kept across runs; the host zeroes it with
     *  Machine::zeroVector after a run that did not solve. */
    Index vecXTilde = -1;

    // Scalar registers with run statistics.
    Index sIterations = -1;  ///< ADMM iterations executed
    Index sStatus = -1;      ///< 1 = solved, 0 = max-iter
    Index sPrimRes = -1;     ///< last unscaled primal residual
    Index sDualRes = -1;     ///< last unscaled dual residual
    Index sPcgTotal = -1;    ///< cumulative PCG iterations
    Index sRhoUpdates = -1;  ///< number of rho updates taken
    Index sRho = -1;         ///< final rho-bar
};

/**
 * Allocate machine resources (vector buffers, HBM regions, scalar
 * registers) and emit the OSQP program.
 *
 * @param machine Machine already holding the four packed matrices.
 * @param mats Their ids.
 * @param scaled The scaled problem data (as inside OsqpSolver).
 * @param scaling The Ruiz scaling (for unscaled residual checks).
 * @param settings OSQP settings; maxIter and adaptiveRhoInterval must
 *        be multiples of checkInterval.
 */
OsqpDeviceProgram buildOsqpProgram(Machine& machine,
                                   const OsqpMatrixIds& mats,
                                   const QpProblem& scaled,
                                   const Scaling& scaling,
                                   const OsqpSettings& settings);

} // namespace rsqp

#endif // RSQP_ARCH_OSQP_PROGRAM_HPP
