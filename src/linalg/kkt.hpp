/**
 * @file
 * KKT-system assembly for the OSQP inner linear system.
 *
 * Two forms are supported, mirroring the paper's Section 2.2:
 *  - the full indefinite KKT matrix
 *        [ P + sigma*I    A'        ]
 *        [ A             -diag(1/rho)]
 *    in upper-triangular CSC storage for the direct LDL' solver, and
 *  - the reduced positive-definite operator
 *        K = P + sigma*I + A' diag(rho) A
 *    applied matrix-free (K is never formed) for the PCG solver.
 */

#ifndef RSQP_LINALG_KKT_HPP
#define RSQP_LINALG_KKT_HPP

#include <vector>

#include "common/types.hpp"
#include "linalg/csc.hpp"

namespace rsqp
{

/**
 * Assembles and incrementally maintains the upper-triangular KKT matrix.
 *
 * The assembler records where every P entry, A entry and rho diagonal
 * entry lands in the KKT value array so that parameter updates (new
 * problem data with the same structure, or a new rho) touch only values
 * and never redo the symbolic work — the same reuse model that amortizes
 * RSQP's hardware generation.
 */
class KktAssembler
{
  public:
    /**
     * Build the KKT matrix.
     *
     * @param p_upper Objective Hessian, upper-triangle CSC storage.
     * @param a Constraint matrix (m x n CSC).
     * @param sigma ADMM regularization added to the (1,1) block diagonal.
     * @param rho_vec Per-constraint step sizes (length m, all > 0).
     */
    KktAssembler(const CscMatrix& p_upper, const CscMatrix& a, Real sigma,
                 const Vector& rho_vec);

    /** The assembled upper-triangular KKT matrix. */
    const CscMatrix& kkt() const { return kkt_; }

    /** Dimension n + m. */
    Index dim() const { return n_ + m_; }
    Index numVariables() const { return n_; }
    Index numConstraints() const { return m_; }

    /** Rewrite the -1/rho diagonal entries for a new rho vector. */
    void updateRho(const Vector& rho_vec);

    /**
     * Rewrite P and A values (same sparsity structure as construction).
     * p_values follows the CSC order of the original P upper matrix and
     * a_values the CSC order of the original A.
     */
    void updateMatrices(const std::vector<Real>& p_values,
                        const std::vector<Real>& a_values);

  private:
    Index n_ = 0;
    Index m_ = 0;
    Real sigma_ = 0.0;
    CscMatrix kkt_;
    /// KKT value slot of each P entry (CSC order of P).
    std::vector<Index> pSlots_;
    /// KKT value slot of each A entry (CSC order of A).
    std::vector<Index> aSlots_;
    /// KKT value slot of the sigma diagonal for variable j.
    std::vector<Index> sigmaSlots_;
    /// Whether P had an explicit diagonal entry at variable j.
    std::vector<bool> pHasDiag_;
    /// KKT value slot of the -1/rho diagonal for constraint i.
    std::vector<Index> rhoSlots_;
};

/**
 * Matrix-free application of the reduced KKT operator
 * K = P + sigma*I + A' diag(rho) A (the paper stores P, A and A'
 * separately and applies K incrementally; so do we).
 *
 * Execution form: construction expands the upper-triangle P into a
 * full symmetric CSR image and mirrors A into CSR; A' needs no mirror
 * at all because a CSR row of A' is exactly a CSC column of A, read
 * through the original arrays. Every apply() is therefore pure
 * row-gather — one private accumulator per output element, fanned out
 * over the shared ThreadPool with bitwise-identical results at any
 * thread count — and the diag(rho) scaling is folded into the A pass
 * (no separate length-m sweep). Each row reduces through the SIMD
 * kernel table's canonical 8-lane striped order, which is fixed per
 * row, so results are also bitwise-identical across dispatched ISA
 * levels. Values, vectors and accumulators are all fp64.
 *
 * Slot maps recorded at construction let refreshValues() re-read
 * updated P/A values in place (same sparsity pattern), and the
 * rho-independent diagonal parts (P_jj + sigma, per-entry A_ij^2) are
 * cached so setRho() recomputes diagonal() in O(nnz(A)).
 */
class ReducedKktOperator
{
  public:
    /**
     * @param p_upper Hessian in upper-triangle CSC storage.
     * @param a Constraint matrix (m x n).
     * @param sigma Regularization parameter.
     * @param rho_vec Per-constraint step sizes (length m).
     */
    ReducedKktOperator(const CscMatrix& p_upper, const CscMatrix& a,
                       Real sigma, Vector rho_vec);

    /** y = K x. */
    void apply(const Vector& x, Vector& y) const;

    /** z = A x (row-gather on the CSR mirror of A). */
    void applyA(const Vector& x, Vector& z) const;

    /** y += A' diag(rho) x — the reduced-rhs build, without temps. */
    void accumulateAtRho(const Vector& x, Vector& y) const;

    /** Cached diagonal of K, used by the Jacobi preconditioner. */
    const Vector& diagonal() const { return diag_; }

    /** Replace the rho vector (same length); costs O(nnz(A)) and
     *  performs no heap allocation. */
    void setRho(const Vector& rho_vec);

    /**
     * Re-read the P/A values through the construction-time slot maps
     * after the caller rewrote them in place (same sparsity pattern),
     * and refresh the cached diagonal.
     */
    void refreshValues();

    Real sigma() const { return sigma_; }
    const Vector& rhoVec() const { return rhoVec_; }
    Index dim() const { return pUpper_->cols(); }

  private:
    void buildPFull();
    void buildAMirror();
    void rebuildDiagonalBase();
    void rebuildDiagonal();

    const CscMatrix* pUpper_;
    const CscMatrix* a_;
    Real sigma_;
    Vector rhoVec_;
    mutable Vector scratchM_;  ///< length-m scratch for diag(rho) A x

    /// Full symmetric expansion of P in CSR (sorted columns per row).
    std::vector<Index> pRowPtr_;
    std::vector<Index> pColIdx_;
    std::vector<Real> pVals_;
    /// CSR slot of each upper-CSC P entry (direct image).
    std::vector<Index> pDirectSlot_;
    /// CSR slot of each entry's transpose image (-1 on the diagonal).
    std::vector<Index> pMirrorSlot_;

    /// CSR mirror of A.
    std::vector<Index> aRowPtr_;
    std::vector<Index> aColIdx_;
    std::vector<Real> aVals_;
    /// CSR slot of each CSC A entry.
    std::vector<Index> aSlotFromCsc_;
    /// Per-entry A_ij^2 aligned with the CSR mirror (rho-independent).
    std::vector<Real> aSqCsr_;

    /// Rho-independent diagonal part: P_jj + sigma.
    Vector diagBase_;
    /// Cached diagonal of K for the current rho.
    Vector diag_;
};

} // namespace rsqp

#endif // RSQP_LINALG_KKT_HPP
