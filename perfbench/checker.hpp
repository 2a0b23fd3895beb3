/**
 * @file
 * Independent answer checker. It recomputes the primal and dual
 * residuals of a returned (x, y) from the raw unscaled problem data
 * with its own loops over the CSC arrays; it shares no residual code
 * with the solvers it checks.
 *
 *   primal residual  r_p = || A x - proj_[l,u](A x) ||_inf
 *   dual residual    r_d = || P x + q + A' y ||_inf
 *
 * A response passes when
 *
 *   r_p <= kSlack * (epsAbs + epsRel * max(||A x||_inf, ||proj(A x)||_inf))
 *   r_d <= kSlack * (epsAbs + epsRel * max(||P x||_inf, ||A' y||_inf,
 *                                          ||q||_inf))
 *
 * which is OSQP's termination test on the unscaled data widened by
 * kSlack: the solvers stop on their own (partly scaled) residuals, so
 * an exact test would fail correct answers by rounding alone.
 */

#ifndef PERFBENCH_CHECKER_HPP
#define PERFBENCH_CHECKER_HPP

#include "common.hpp"

namespace perfbench
{

/** Widening of OSQP's termination tolerance (see file comment). */
inline constexpr double kSlack = 10.0;

struct CheckResult
{
    double primalResidual = 0.0;
    double dualResidual = 0.0;
    double primalTolerance = 0.0;
    double dualTolerance = 0.0;
    bool finite = true;

    bool ok() const
    {
        return finite && primalResidual <= primalTolerance &&
            dualResidual <= dualTolerance;
    }
};

CheckResult checkAnswer(const rsqp::CscMatrix& p_upper,
                        const rsqp::Vector& q, const rsqp::CscMatrix& a,
                        const rsqp::Vector& l, const rsqp::Vector& u,
                        const rsqp::Vector& x, const rsqp::Vector& y,
                        double eps_abs, double eps_rel);

} // namespace perfbench

#endif // PERFBENCH_CHECKER_HPP
