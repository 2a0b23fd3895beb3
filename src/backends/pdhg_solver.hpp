/**
 * @file
 * Restarted PDHG/PDQP engine — the first-order alternative to the
 * ADMM loop, in the style of PDLP / "A Practical and Optimal
 * First-Order Method for Large-Scale Convex Quadratic Programming"
 * (arXiv 2311.07710).
 *
 * The method iterates on the saddle problem
 *
 *   min_x max_y  (1/2) x'Px + q'x + y'Ax - g*(y),    g = I_[l,u]
 *
 * with the Condat–Vũ primal-dual step (valid for quadratic f):
 *
 *   x+ = x - tau (P x + q + A' y)
 *   xb = 2 x+ - x
 *   y+ = sigma (w - Pi_[l,u](w)),   w = y/sigma + A xb
 *
 * under the step-size condition tau (lam_P/2 + sigma ||A||^2) <= 1,
 * with ||A|| and lam_P = lambda_max(P) bounded by power iteration at
 * setup. A primal weight omega balances the two step sizes
 * (sigma = omega/||A||) and is adapted at restart points from the
 * observed primal/dual displacement ratio. Restarts (fixed-frequency
 * or adaptive to the running average, or Halpern anchoring) recover
 * the linear convergence plain PDHG lacks on QPs.
 *
 * Everything runs on the shared deterministic kernels: CSR-mirror
 * SpMV (SIMD row-gather), fixed-grain chunked reductions and
 * parallelForRange element updates — results are bitwise-identical at
 * any thread count and ISA level. The divergence watchdog, iterate
 * checkpoint and seeded fault injection hook in exactly like the ADMM
 * loop, and solve() returns the standard OsqpResult contract.
 */

#ifndef RSQP_BACKENDS_PDHG_SOLVER_HPP
#define RSQP_BACKENDS_PDHG_SOLVER_HPP

#include <memory>

#include "backends/qp_backend.hpp"
#include "common/fault_injection.hpp"
#include "linalg/csr.hpp"
#include "osqp/scaling.hpp"

namespace rsqp
{

/** Restarted primal-dual hybrid gradient engine (see file comment). */
class PdhgSolver final : public QpBackend
{
  public:
    /**
     * Set up: validate, Ruiz-scale, build the CSR mirrors and the
     * power-iteration step-size bounds. Never throws on caller input —
     * malformed settings/problem leave the engine inert and solve()
     * returns SolveStatus::InvalidProblem (same contract as
     * OsqpSolver).
     */
    PdhgSolver(QpProblem problem, OsqpSettings settings);

    OsqpResult solve() override;
    bool warmStart(const Vector& x, const Vector& y) override;
    void updateLinearCost(const Vector& q) override;
    void updateBounds(const Vector& l, const Vector& u) override;
    void updateMatrixValues(const std::vector<Real>& p_values,
                            const std::vector<Real>& a_values) override;
    void setTimeLimit(Real seconds) override
    {
        settings_.timeLimit = seconds;
    }
    const ValidationReport& validation() const override
    {
        return validation_;
    }
    BackendKind kind() const override { return BackendKind::Pdhg; }

    // --- introspection for tests/bench --------------------------------

    /** Current primal step size tau. */
    Real stepTau() const { return tau_; }
    /** Current dual step size sigma. */
    Real stepSigma() const { return sigma_; }
    /** Current primal weight omega. */
    Real primalWeight() const { return omega_; }
    /** Power-iteration bound on ||A|| (scaled space). */
    Real operatorNormBound() const { return etaA_; }

  private:
    /** Power-iteration bounds for ||A|| and lambda_max(P). */
    void estimateOperatorNorms();

    /** tau/sigma from (omega_, etaA_, lamP_) with the safety margin. */
    void applyStepSizes();

    /** Data-driven initial primal weight (config 0 = automatic). */
    Real initialPrimalWeight() const;

    /** Rebuild the CSR execution mirrors from the scaled CSC data. */
    void rebuildMirrors();

    bool checkPrimalInfeasibility(const Vector& delta_y) const;
    bool checkDualInfeasibility(const Vector& delta_x) const;

    OsqpSettings settings_;
    QpProblem original_;  ///< unscaled copy (residuals, objective)
    QpProblem scaled_;    ///< Ruiz-scaled problem the iteration uses
    Scaling scaling_;
    ValidationReport validation_;
    Index n_ = 0;
    Index m_ = 0;

    // CSR execution mirrors of the scaled operators (SIMD row-gather).
    CsrMatrix aCsr_;   ///< A  (m x n)
    CsrMatrix atCsr_;  ///< A' (n x m)
    CsrMatrix pCsr_;   ///< P expanded to full symmetric (n x n)

    Real etaA_ = 1.0;   ///< >= ||A||_2 (power iteration, with margin)
    Real lamP_ = 0.0;   ///< >= lambda_max(P) (power iteration, margin)
    Real omega_ = 1.0;  ///< primal weight (persists across solves)
    Real tau_ = 0.0;    ///< primal step
    Real sigma_ = 0.0;  ///< dual step

    std::unique_ptr<FaultInjector> faultInjector_;

    // Scaled-space iterates (persist across solves for warm starting).
    Vector x_, y_;

    OsqpInfo lastInfo_;
};

} // namespace rsqp

#endif // RSQP_BACKENDS_PDHG_SOLVER_HPP
