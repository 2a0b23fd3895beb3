/**
 * @file
 * The pluggable first-order backend interface.
 *
 * A QpBackend is "one QP structure, set up once, solved many times",
 * with the engine behind it swappable: OsqpSolver (the classic ADMM
 * loop, which implements this interface itself) or the restarted
 * PDHG engine. makeBackend resolves BackendKind::Auto once at setup
 * with chooseBackend and returns the chosen engine. Every
 * implementation returns the same OsqpResult with SolveStatus /
 * OsqpInfo / SolveTelemetry semantics, so callers, telemetry
 * pipelines and bench artifacts never care which method ran.
 *
 * Construction never throws on caller input: a malformed problem or
 * settings leaves the backend inert and every solve() returns
 * SolveStatus::InvalidProblem with the report attached.
 */

#ifndef RSQP_BACKENDS_QP_BACKEND_HPP
#define RSQP_BACKENDS_QP_BACKEND_HPP

#include <memory>
#include <vector>

#include "backends/backend_config.hpp"
#include "osqp/problem.hpp"
#include "osqp/settings.hpp"
#include "osqp/status.hpp"

namespace rsqp
{

/** Abstract first-order QP engine (see file comment). */
class QpBackend
{
  public:
    virtual ~QpBackend() = default;

    /** Run the method from the current warm-start state. */
    virtual OsqpResult solve() = 0;

    /**
     * Warm start the next solve() from an unscaled primal/dual guess.
     * Size mismatches are ignored with a warning (returns false).
     */
    virtual bool warmStart(const Vector& x, const Vector& y) = 0;

    /** Replace q (same length); rescales internally. */
    virtual void updateLinearCost(const Vector& q) = 0;

    /** Replace l and u (same length); rescales internally. */
    virtual void updateBounds(const Vector& l, const Vector& u) = 0;

    /**
     * Replace numeric values of P and/or A keeping the sparsity
     * structure (empty vector = keep current values), in the original
     * unscaled CSC order of the setup matrices.
     */
    virtual void updateMatrixValues(const std::vector<Real>& p_values,
                                    const std::vector<Real>& a_values) = 0;

    /** Wall-clock budget of subsequent solve() calls (0 = no limit). */
    virtual void setTimeLimit(Real seconds) = 0;

    /** Setup diagnostics (ok() unless the backend is inert). */
    virtual const ValidationReport& validation() const = 0;

    /** Which engine this is (Admm or Pdhg, never Auto). */
    virtual BackendKind kind() const = 0;

    /** Printable engine name. */
    const char* name() const { return backendKindName(kind()); }

    virtual Index numVariables() const = 0;
    virtual Index numConstraints() const = 0;
};

/**
 * Build the engine selected by settings.firstOrder.method: Admm
 * builds an OsqpSolver, Pdhg the restarted primal-dual engine, and
 * Auto whichever of the two chooseBackend picks for this problem.
 */
std::unique_ptr<QpBackend> makeBackend(QpProblem problem,
                                       OsqpSettings settings);

} // namespace rsqp

#endif // RSQP_BACKENDS_QP_BACKEND_HPP
