/**
 * @file
 * Per-problem backend selection policy.
 *
 * The selector reduces a QP to a handful of problem-class features —
 * sizes, equality-constraint fraction, aspect ratio — and applies the
 * fixed thresholds below to pick the engine that answers
 * BackendKind::Auto. makeBackend calls it once at setup; the pick
 * never changes mid-solve. It is a pure function: same problem, same
 * choice, on every host.
 *
 * The rationale baked into the thresholds (measured on the bench
 * suite, see bench_backends):
 *
 *  - equality-dominated problems (eqqp) keep ADMM: the
 *    per-constraint stiff-rho trick resolves equalities in tens of
 *    iterations, while PDHG has to drive them through a plain
 *    projection;
 *  - tall problems with a mixed equality/inequality constraint set
 *    (control) go to PDHG: a single ADMM penalty has to compromise
 *    between stiff equality rows and loose inequality rows there,
 *    while PDHG's restarted iterations with an adaptive primal weight
 *    don't — and each PDHG iteration is cheaper (two SpMVs, no KKT
 *    solve). All-inequality tall problems (svm) stay ADMM: one rho
 *    fits every row;
 *  - small problems always keep ADMM — a direct KKT factor solves
 *    them in milliseconds.
 */

#ifndef RSQP_BACKENDS_BACKEND_SELECTOR_HPP
#define RSQP_BACKENDS_BACKEND_SELECTOR_HPP

#include "backends/backend_config.hpp"
#include "osqp/problem.hpp"

namespace rsqp
{

/** Problem-class features the selection policy consumes. */
struct BackendFeatures
{
    Index n = 0;                  ///< variables
    Index m = 0;                  ///< constraints
    Real equalityFraction = 0.0;  ///< constraints with u - l ~ 0
    Real tallRatio = 0.0;         ///< m / n
};

/** Problem size (n + m) below which ADMM always wins the pick
 *  (setup and per-iteration costs dwarf iteration-count gaps). */
inline constexpr Index kSelectorSmallProblem = 400;

/** Equality-constraint fraction at or above which the selector keeps
 *  ADMM (PDHG has no equivalent of the stiff per-constraint rho). */
inline constexpr Real kSelectorEqualityAdmm = 0.6;

/** Minimum equality fraction for the PDHG route: with no equalities
 *  at all one rho fits every row and ADMM keeps the edge. */
inline constexpr Real kSelectorEqualityPdhgMin = 0.2;

/** Constraint-to-variable ratio (m/n) at or above which mixed
 *  problems route to PDHG. */
inline constexpr Real kSelectorTallRatioPdhg = 1.25;

/** Extract the selection features from a problem (pure, cheap). */
BackendFeatures computeBackendFeatures(const QpProblem& problem);

/** The policy: ADMM or PDHG for this feature vector (never Auto). */
BackendKind chooseBackend(const BackendFeatures& features);

/** Convenience overload: features computed internally. */
BackendKind chooseBackend(const QpProblem& problem);

} // namespace rsqp

#endif // RSQP_BACKENDS_BACKEND_SELECTOR_HPP
