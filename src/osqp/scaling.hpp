/**
 * @file
 * Modified Ruiz equilibration of the QP data, as in OSQP.
 *
 * The scaled problem is
 *   minimize    (1/2) xb' (c D P D) xb + (c D q)' xb
 *   subject to  E l <= (E A D) xb <= E u
 * with diagonal D (n), E (m) and cost scalar c. Solutions map back as
 *   x = D xb,   y = c^{-1} E yb,   z = E^{-1} zb.
 *
 * ScaledQp keeps one problem in both spaces under a fixed scaling; it
 * is the one copy of this bookkeeping that every engine (OsqpSolver,
 * PdhgSolver, RsqpSolver) holds.
 */

#ifndef RSQP_OSQP_SCALING_HPP
#define RSQP_OSQP_SCALING_HPP

#include <vector>

#include "common/types.hpp"
#include "osqp/problem.hpp"

namespace rsqp
{

/** Diagonal scaling produced by Ruiz equilibration. */
struct Scaling
{
    Vector d;     ///< variable scaling, length n
    Vector dInv;  ///< 1 / d
    Vector e;     ///< constraint scaling, length m
    Vector eInv;  ///< 1 / e
    Real c = 1.0;     ///< cost scaling
    Real cInv = 1.0;  ///< 1 / c

    /** Identity scaling of the given dimensions. */
    static Scaling identity(Index n, Index m);
};

/**
 * Run `iterations` sweeps of modified Ruiz equilibration on (P, q, A)
 * and scale the problem in place (bounds included).
 *
 * @param problem QP data, modified in place to the scaled problem.
 * @param iterations Number of sweeps; 0 returns identity scaling.
 * @return the scaling that was applied.
 */
Scaling ruizEquilibrate(QpProblem& problem, Index iterations);

/**
 * A QP in user (unscaled) and Ruiz-scaled form plus the scaling that
 * relates them. The scaling is fixed when the ScaledQp is built;
 * parametric updates replace the unscaled data and re-apply it:
 *   qb = c D q,   lb = E l,  ub = E u  (infinite bounds kept),
 *   Pb = c D P D,   Ab = E A D.
 * Iterates cross between the spaces as
 *   in:  xb = D^{-1} x,   yb = c E^{-1} y,
 *   out: x = D xb,   y = c^{-1} E yb,   z = E^{-1} zb.
 */
class ScaledQp
{
  public:
    /** Empty problem: the state of an engine that failed validation. */
    ScaledQp() = default;

    /** Scale a copy of `problem` with `iterations` Ruiz sweeps. */
    ScaledQp(QpProblem problem, Index iterations);

    const QpProblem& original() const { return original_; }
    const QpProblem& scaled() const { return scaled_; }
    const Scaling& scaling() const { return scaling_; }

    /** Replace q (same length). */
    void setLinearCost(const Vector& q);

    /** Replace l and u (same length); l > u anywhere is fatal. */
    void setBounds(const Vector& l, const Vector& u);

    /**
     * Replace the values of P and/or A, given in the unscaled CSC
     * order of the setup matrices; an empty vector keeps that matrix.
     * The sparsity structure never changes.
     *
     * @return true if either matrix was replaced.
     */
    bool setMatrixValues(const std::vector<Real>& p_values,
                         const std::vector<Real>& a_values);

    /**
     * Map an unscaled warm start (x, y) into scaled space (xb, yb).
     * A size mismatch is a recoverable client error: it is logged,
     * xb and yb stay untouched, and false is returned.
     */
    bool scaleWarmStart(const Vector& x, const Vector& y, Vector& xb,
                        Vector& yb) const;

    /** Map scaled iterates (xb, yb) back to (x, y). */
    void unscale(const Vector& xb, const Vector& yb, Vector& x,
                 Vector& y) const;

    /** Map scaled iterates (xb, yb, zb) back to (x, y, z). */
    void unscale(const Vector& xb, const Vector& yb, const Vector& zb,
                 Vector& x, Vector& y, Vector& z) const;

  private:
    QpProblem original_;  ///< user data (residuals, objective)
    QpProblem scaled_;    ///< the data the engines iterate on
    Scaling scaling_;
};

} // namespace rsqp

#endif // RSQP_OSQP_SCALING_HPP
