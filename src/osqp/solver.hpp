/**
 * @file
 * From-scratch implementation of the OSQP ADMM solver (Algorithm 1).
 *
 * The solver owns the per-constraint rho vector, a pluggable KKT
 * backend (direct LDL' or indirect PCG), adaptive rho and the full
 * OSQP termination logic. The Ruiz-scaled problem (ScaledQp), the
 * residuals and the primal/dual infeasibility certificates are the
 * ones every engine shares.
 *
 * The parametric-update entry points (updateLinearCost, updateBounds,
 * updateMatrixValues) keep the sparsity structure fixed — the reuse
 * model that amortizes RSQP's per-structure hardware generation.
 *
 * OsqpSolver is the Admm engine of the first-order backend interface
 * (QpBackend): makeBackend returns it for BackendKind::Admm.
 */

#ifndef RSQP_OSQP_SOLVER_HPP
#define RSQP_OSQP_SOLVER_HPP

#include <memory>

#include "backends/qp_backend.hpp"
#include "osqp/problem.hpp"
#include "osqp/recovery.hpp"
#include "osqp/scaling.hpp"
#include "osqp/settings.hpp"
#include "osqp/status.hpp"
#include "solvers/kkt_solver.hpp"

namespace rsqp
{

/** The OSQP solver object (setup once, solve many). */
class OsqpSolver final : public QpBackend
{
  public:
    /**
     * Set up the solver: validate, scale, build rho vector and the KKT
     * backend. Corresponds to osqp_setup().
     *
     * Never throws on caller input: malformed settings AND malformed
     * problem data both leave the solver inert, and every solve()
     * returns SolveStatus::InvalidProblem with the ValidationReport
     * attached (see validation()).
     */
    OsqpSolver(QpProblem problem, OsqpSettings settings);

    ~OsqpSolver() override;
    OsqpSolver(const OsqpSolver&) = delete;
    OsqpSolver& operator=(const OsqpSolver&) = delete;

    /** Run Algorithm 1 from the current warm-start state. */
    OsqpResult solve() override;

    /**
     * Warm start the next solve() from a primal/dual guess (unscaled).
     * A size mismatch is a recoverable client error: the guess is
     * ignored with a warning and false is returned (the solve proceeds
     * from the current iterates), in the same spirit as the
     * non-throwing InvalidProblem path.
     */
    bool warmStart(const Vector& x, const Vector& y) override;

    /** Replace q (same length); rescales internally. */
    void updateLinearCost(const Vector& q) override;

    /** Replace l and u (same length); rescales internally. */
    void updateBounds(const Vector& l, const Vector& u) override;

    /**
     * Manually set the scalar rho (osqp_update_rho): rebuilds the
     * per-constraint rho vector and refreshes the KKT backend.
     */
    void updateRho(Real rho_bar);

    /** Current scalar rho (after any adaptation). */
    Real currentRho() const { return rhoBar_; }

    /**
     * Replace the wall-clock budget of subsequent solve() calls
     * (seconds; 0 = no limit). The service layer uses this to apply a
     * per-request deadline — the remaining budget after queue wait —
     * without rebuilding the solver.
     */
    void setTimeLimit(Real seconds) override
    {
        settings_.timeLimit = seconds;
    }

    /**
     * Replace the numeric values of P and/or A keeping the sparsity
     * structure (pass empty vectors to keep current values). Values are
     * in the *original* (unscaled) CSC order of the setup matrices.
     */
    void updateMatrixValues(const std::vector<Real>& p_values,
                            const std::vector<Real>& a_values) override;

    const OsqpSettings& settings() const { return settings_; }

    /** Problem diagnostics from setup (ok() unless InvalidProblem). */
    const ValidationReport& validation() const override
    {
        return validation_;
    }

    BackendKind kind() const override { return BackendKind::Admm; }

    /** Per-constraint rho vector currently in use (scaled space). */
    const Vector& rhoVec() const { return rhoVec_; }

    /** KKT backend currently in use (null when the solver is inert). */
    const KktSolver* kktSolver() const { return kkt_.get(); }

  private:
    void buildRhoVec(Real rho_bar);
    void rebuildKktSolver();

    /** rho adaptation; returns true if rho changed. */
    bool adaptRho(Real prim_res, Real dual_res, const Vector& x,
                  const Vector& y, const Vector& z);

    OsqpSettings settings_;
    ScaledQp qp_;  ///< unscaled and scaled problem (see ScaledQp)
    ValidationReport validation_;  ///< setup diagnostics
    Index n_ = 0;
    Index m_ = 0;

    /**
     * sigma actually inside the KKT system — settings_.sigma until a
     * checkpoint-restore recovery boosts it; reset on the next solve.
     */
    Real sigmaEff_ = 1e-6;

    Real rhoBar_ = 0.1;  ///< current scalar rho before per-constraint map
    Vector rhoVec_;
    Vector rhoInvVec_;

    std::unique_ptr<KktSolver> kkt_;
    /**
     * kkt_ has finished a solve: PCG stops at the tolerance of the
     * latest residual check instead of the cold schedule.
     */
    bool kktFollowsChecks_ = false;

    // Scaled-space iterates (persist across solves for warm starting).
    Vector x_, y_, z_;

    OsqpInfo lastInfo_;
};

} // namespace rsqp

#endif // RSQP_OSQP_SOLVER_HPP
