/**
 * @file
 * Shared (unscaled) OSQP residual and tolerance computations and the
 * infeasibility certificates, used by the ADMM and PDHG loops, the
 * device's host-side check, the polisher and the tests.
 */

#ifndef RSQP_OSQP_RESIDUALS_HPP
#define RSQP_OSQP_RESIDUALS_HPP

#include "osqp/problem.hpp"
#include "osqp/settings.hpp"

namespace rsqp
{

/** Residuals and the matching OSQP termination tolerances. */
struct ResidualInfo
{
    Real primRes = 0.0;   ///< ||A x - z||_inf
    Real dualRes = 0.0;   ///< ||P x + q + A' y||_inf
    Real epsPrim = 0.0;   ///< eps_abs + eps_rel * max(||Ax||, ||z||)
    Real epsDual = 0.0;   ///< eps_abs + eps_rel * max(||Px||,||A'y||,||q||)

    bool
    converged() const
    {
        return primRes <= epsPrim && dualRes <= epsDual;
    }
};

/** Compute unscaled residuals/tolerances at the point (x, y, z). */
ResidualInfo computeResiduals(const QpProblem& problem, const Vector& x,
                              const Vector& y, const Vector& z,
                              Real eps_abs, Real eps_rel);

/**
 * OSQP's primal infeasibility certificate on the unscaled problem: the
 * dual iterate change delta_y between two termination checks proves
 * infeasibility when ||A' dy|| <= eps ||dy|| and
 * u'(dy)+ + l'(dy)- <= -eps ||dy|| (no infinite bound may be loaded).
 */
bool checkPrimalInfeasibility(const QpProblem& problem,
                              const Vector& delta_y, Real eps_prim_inf);

/**
 * Dual infeasibility certificate on the unscaled problem: the primal
 * iterate change delta_x certifies unboundedness when
 * q'dx <= -eps ||dx||, ||P dx|| <= eps ||dx||, and A dx stays within
 * eps ||dx|| of the recession cone of [l, u].
 */
bool checkDualInfeasibility(const QpProblem& problem,
                            const Vector& delta_x, Real eps_dual_inf);

} // namespace rsqp

#endif // RSQP_OSQP_RESIDUALS_HPP
