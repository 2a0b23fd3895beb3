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
 * Nonzeros of A per block of the fused reduced-KKT apply. Construction
 * splits A's rows into ceil(nnz(A) / kKktApplyBlockNnz) nnz-balanced
 * blocks; every block beyond the first scatters into its own length-n
 * accumulator, so each extra block costs a zero and a combine of n
 * values — 1-3% of a serial apply each. The grain keeps blocks far
 * larger than n wherever A splits at all.
 */
inline constexpr Index kKktApplyBlockNnz = Index{1} << 19;

/**
 * Matrix-free application of the reduced KKT operator
 * K = P + sigma*I + A' diag(rho) A. The paper's accelerator applies K
 * incrementally without forming it; so do we, streaming A once.
 *
 * Execution form: construction expands the upper-triangle P into a
 * full symmetric CSR image and mirrors A into CSR. Every apply() is
 * two passes through the SIMD kernel table: a row-gather over P that
 * writes y = (P + sigma I) x, then one fused pass over A's CSR mirror
 * that computes w_i = rho_i * (a_i . x) for each row and immediately
 * scatters y += w_i * a_i while the row is still in cache — A is read
 * once per apply, never through its CSC arrays. Each row dot reduces
 * in the kernel table's canonical 8-lane striped order and each
 * scatter update is one multiply then one add, so results are
 * bitwise-identical across dispatched ISA levels. Values, vectors and
 * accumulators are all fp64.
 *
 * Threading: A's rows are split at construction into nnz-balanced
 * blocks of about kKktApplyBlockNnz nonzeros (see there). Block 0
 * scatters into y; every later block scatters into a private
 * accumulator, and the accumulators are added into y in block order.
 * Serial and pooled runs execute the same blocks, so the result is
 * bitwise-identical at any thread count for the partition the matrix
 * fixes. Inside a pool worker the blocks run inline.
 *
 * Slot maps recorded at construction let refreshValues() re-read
 * updated P/A values in place (same sparsity pattern), and the
 * rho-independent diagonal part P_jj + sigma is cached so setRho()
 * recomputes diagonal() in O(nnz(A)), squaring A's CSR values on the
 * fly.
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

    /**
     * y += A' diag(rho) x — the reduced-rhs build. Fills a length-m
     * scratch with rho .* x, then gathers each column of A's CSC
     * arrays against it.
     */
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
    void buildABlocks();
    void rebuildDiagonalBase();
    void rebuildDiagonal();

    const CscMatrix* pUpper_;
    const CscMatrix* a_;
    Real sigma_;
    Vector rhoVec_;
    mutable Vector scratchM_;  ///< length-m rho .* x for accumulateAtRho

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
    /// First row of each fused-apply block, plus m (size blocks + 1).
    std::vector<Index> aBlockRow_;
    /// Length-n scatter accumulators of blocks 1.. (empty for one block).
    mutable std::vector<Real> blockAcc_;

    /// Rho-independent diagonal part: P_jj + sigma.
    Vector diagBase_;
    /// Cached diagonal of K for the current rho.
    Vector diag_;
};

} // namespace rsqp

#endif // RSQP_LINALG_KKT_HPP
