/**
 * @file
 * Settings of the OSQP ADMM solver (defaults follow the reference
 * implementation; alpha = 1.6 and sigma = 1e-6 as quoted in the paper).
 */

#ifndef RSQP_OSQP_SETTINGS_HPP
#define RSQP_OSQP_SETTINGS_HPP

#include "backends/backend_config.hpp"
#include "common/execution.hpp"
#include "common/types.hpp"
#include "solvers/ordering.hpp"
#include "solvers/pcg.hpp"

namespace rsqp
{

/** Which linear-system backend solves the KKT step. */
enum class KktBackend
{
    DirectLdl,    ///< sparse LDL' (OSQP default / MKL-Pardiso role)
    IndirectPcg,  ///< matrix-free PCG (cuOSQP / RSQP role)
};

/** OSQP algorithm settings. */
struct OsqpSettings
{
    Real rho = 0.1;           ///< initial ADMM step size
    Real sigma = 1e-6;        ///< primal regularization
    Real alpha = 1.6;         ///< relaxation parameter, in (0, 2)

    Real epsAbs = 1e-3;       ///< absolute termination tolerance
    Real epsRel = 1e-3;       ///< relative termination tolerance
    Real epsPrimInf = 1e-4;   ///< primal infeasibility tolerance
    Real epsDualInf = 1e-4;   ///< dual infeasibility tolerance

    Index maxIter = 4000;     ///< ADMM iteration cap
    Index checkInterval = 25; ///< termination check period

    bool adaptiveRho = true;         ///< enable rho adaptation
    Index adaptiveRhoInterval = 100; ///< iterations between rho updates
    Real adaptiveRhoTolerance = 5.0; ///< ratio threshold for an update

    Index scalingIterations = 10; ///< Ruiz equilibration sweeps (0 = off)

    bool polish = false;          ///< active-set solution polishing
    Real polishDelta = 1e-6;      ///< polish KKT regularization
    Index polishRefineIter = 3;   ///< iterative-refinement steps

    Real rhoEqScale = 1e3;  ///< rho multiplier for equality constraints
    Real rhoMin = 1e-6;     ///< lower clamp for per-constraint rho
    Real rhoMax = 1e6;      ///< upper clamp for per-constraint rho

    KktBackend backend = KktBackend::DirectLdl;
    OrderingKind ordering = OrderingKind::Rcm;  ///< direct backend only
    PcgSettings pcg;                            ///< indirect backend only

    /**
     * Execution-resource knobs (host threads for the hot-path vector
     * kernels and PCG). Results never depend on the thread count:
     * the serial-vs-chunked summation order of a reduction is picked
     * by vector length alone (kParallelThreshold), so vectors at or
     * above the threshold use the fixed-grain chunked order even at
     * numThreads = 1 — bitwise-identical across settings, but not to
     * a plain left-to-right accumulation. Below the threshold every
     * kernel is the exact legacy serial loop.
     */
    ExecutionConfig execution;

    bool recordTrace = false;  ///< keep per-iteration residual history

    /**
     * Wall-clock budget for one solve() call in seconds (0 = no
     * limit). Checked once per ADMM iteration; an expired budget
     * terminates with SolveStatus::TimeLimitReached and the current
     * (finite) iterates.
     */
    Real timeLimit = 0.0;

    /**
     * First-order engine selection (makeBackend factory) plus the
     * PDHG engine knobs. The default is BackendKind::Admm, this
     * solver itself.
     */
    FirstOrderSettings firstOrder;
};

} // namespace rsqp

#endif // RSQP_OSQP_SETTINGS_HPP
