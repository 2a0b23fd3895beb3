/**
 * @file
 * Linear-system backends for the OSQP iteration (paper Section 2.2).
 *
 * DirectKktSolver factors the full indefinite KKT matrix with LDL' and
 * reuses the numeric factorization until rho changes. IndirectKktSolver
 * solves the reduced positive-definite system with PCG and never forms
 * K explicitly. Both present the same interface so the ADMM loop is
 * backend-agnostic — the same split OSQP uses to host MKL, cuOSQP, or
 * the RSQP accelerator.
 */

#ifndef RSQP_SOLVERS_KKT_SOLVER_HPP
#define RSQP_SOLVERS_KKT_SOLVER_HPP

#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "linalg/csc.hpp"
#include "linalg/kkt.hpp"
#include "solvers/ldl.hpp"
#include "solvers/ordering.hpp"
#include "solvers/pcg.hpp"

namespace rsqp
{

/** Per-solve statistics reported back to the ADMM loop. */
struct KktSolveStats
{
    Index pcgIterations = 0;   ///< 0 for the direct backend
    bool refactorized = false; ///< direct backend only
    bool usedFallback = false; ///< PCG broke down; LDL' solved the step
    PcgBreakdown pcgBreakdown = PcgBreakdown::None;
};

/**
 * Abstract solver of the ADMM equality-QP step.
 *
 * Given rhs_x = sigma*x - q and rhs_z = z - y/rho, produce
 * x_tilde (the new primal iterate candidate) and z_tilde = A x_tilde.
 */
class KktSolver
{
  public:
    virtual ~KktSolver() = default;

    /** Solve the step; returns per-call statistics. */
    virtual KktSolveStats solve(const Vector& rhs_x, const Vector& rhs_z,
                                Vector& x_tilde, Vector& z_tilde) = 0;

    /** Inform the backend of a rho change. */
    virtual void updateRho(const Vector& rho_vec) = 0;

    /**
     * Refresh P/A values in place after the problem data changed with
     * an unchanged sparsity pattern (the caller already rewrote the
     * matrices the backend references). Returns false when the backend
     * cannot update incrementally — the caller must rebuild it.
     */
    virtual bool
    updateMatrixValues(const std::vector<Real>&, const std::vector<Real>&)
    {
        return false;
    }

    /**
     * Absolute stopping tolerance for the following solves of an
     * iterative backend (pcgResidualTolerance of an ADMM residual
     * check). The direct backend solves exactly and ignores it.
     */
    virtual void setTolerance(Real) {}

    /** Human-readable backend name for reports. */
    virtual const char* name() const = 0;

    /** Cumulative PCG iterations (0 for direct). */
    virtual Count totalPcgIterations() const { return 0; }
};

/** LDL'-based direct backend (OSQP's default "qdldl" backend). */
class DirectKktSolver : public KktSolver
{
  public:
    /**
     * @param p_upper Hessian (upper-triangle CSC).
     * @param a Constraint matrix.
     * @param sigma ADMM sigma.
     * @param rho_vec Initial per-constraint rho.
     * @param ordering Fill-reducing ordering strategy.
     */
    DirectKktSolver(const CscMatrix& p_upper, const CscMatrix& a,
                    Real sigma, const Vector& rho_vec,
                    OrderingKind ordering = OrderingKind::Rcm);

    KktSolveStats solve(const Vector& rhs_x, const Vector& rhs_z,
                        Vector& x_tilde, Vector& z_tilde) override;
    void updateRho(const Vector& rho_vec) override;
    bool updateMatrixValues(const std::vector<Real>& p_values,
                            const std::vector<Real>& a_values) override;
    const char* name() const override { return "direct-ldl"; }

    /** Factor non-zero count (for reporting). */
    Count factorNnz() const { return ldl_->lnnz(); }

  private:
    void refactor();

    Index n_;
    Index m_;
    KktAssembler assembler_;
    IndexVector perm_;     ///< ordering permutation
    IndexVector invPerm_;  ///< inverse permutation
    CscMatrix kktPermuted_;
    std::unique_ptr<LdlFactorization> ldl_;
    Vector rhoVec_;
    Vector work_;
    bool needRefactor_ = true;
};

/** PCG-based indirect backend (cuOSQP / RSQP style). */
class IndirectKktSolver : public KktSolver
{
  public:
    IndirectKktSolver(const CscMatrix& p_upper, const CscMatrix& a,
                      Real sigma, const Vector& rho_vec,
                      PcgSettings pcg_settings = {});

    KktSolveStats solve(const Vector& rhs_x, const Vector& rhs_z,
                        Vector& x_tilde, Vector& z_tilde) override;
    void updateRho(const Vector& rho_vec) override;
    bool updateMatrixValues(const std::vector<Real>& p_values,
                            const std::vector<Real>& a_values) override;
    void setTolerance(Real absolute) override { tolerance_ = absolute; }
    const char* name() const override { return "indirect-pcg"; }
    Count totalPcgIterations() const override { return totalPcgIters_; }

    /**
     * Tolerance handed in last; empty while the backend still runs its
     * cold schedule (PcgSettings::adaptiveTolerance).
     */
    std::optional<Real> tolerance() const { return tolerance_; }

    /** Iterations used by the most recent solve. */
    Index lastPcgIterations() const { return lastPcgIters_; }

    /** Steps answered by the LDL' fallback after a PCG breakdown. */
    Count fallbackSolves() const { return fallbackSolves_; }

  private:
    /**
     * Solve this step with a lazily constructed DirectKktSolver.
     * Returns false if its factorization fails (the caller keeps the
     * PCG iterate and its breakdown tag).
     */
    bool solveWithFallback(const Vector& rhs_x, const Vector& rhs_z,
                           Vector& x_tilde, Vector& z_tilde);

    const CscMatrix* p_;  ///< Hessian upper triangle (fallback input)
    const CscMatrix* a_;
    Real sigma_;
    ReducedKktOperator op_;
    JacobiPreconditioner precond_;  ///< rebuilt in place on rho change
    PcgSettings pcgSettings_;
    Vector rhoVec_;
    Vector warmX_;     ///< previous solution for warm starting
    Vector reducedRhs_;
    PcgWorkspace pcgWorkspace_;  ///< persistent CG vectors (no realloc)
    Index lastPcgIters_ = 0;
    Count totalPcgIters_ = 0;
    Real coldEpsRel_;  ///< relative tolerance of the next cold solve
    std::optional<Real> tolerance_;  ///< handed absolute tolerance
    std::unique_ptr<DirectKktSolver> fallback_;  ///< built on first use
    Count fallbackSolves_ = 0;
};

} // namespace rsqp

#endif // RSQP_SOLVERS_KKT_SOLVER_HPP
