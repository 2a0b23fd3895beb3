#include "kkt.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "linalg/simd_kernels.hpp"
#include "telemetry/trace.hpp"

namespace rsqp
{

KktAssembler::KktAssembler(const CscMatrix& p_upper, const CscMatrix& a,
                           Real sigma, const Vector& rho_vec)
    : n_(p_upper.cols()), m_(a.rows()), sigma_(sigma)
{
    RSQP_ASSERT(p_upper.rows() == p_upper.cols(), "P must be square");
    RSQP_ASSERT(a.cols() == n_, "A column count must match P");
    RSQP_ASSERT(static_cast<Index>(rho_vec.size()) == m_,
                "rho vector length must be m");

    pSlots_.resize(static_cast<std::size_t>(p_upper.nnz()));
    aSlots_.resize(static_cast<std::size_t>(a.nnz()));
    sigmaSlots_.resize(static_cast<std::size_t>(n_));
    pHasDiag_.assign(static_cast<std::size_t>(n_), false);
    rhoSlots_.resize(static_cast<std::size_t>(m_));

    const Index dim = n_ + m_;
    std::vector<Index> col_ptr(static_cast<std::size_t>(dim) + 1, 0);
    std::vector<Index> row_idx;
    std::vector<Real> values;
    row_idx.reserve(static_cast<std::size_t>(p_upper.nnz() + a.nnz() +
                                             dim));
    values.reserve(row_idx.capacity());

    // (1,1) block columns: P upper column + sigma on the diagonal.
    for (Index j = 0; j < n_; ++j) {
        bool has_diag = false;
        for (Index p = p_upper.colPtr()[j]; p < p_upper.colPtr()[j + 1];
             ++p) {
            const Index r = p_upper.rowIdx()[p];
            RSQP_ASSERT(r <= j, "P must be upper-triangular storage");
            Real v = p_upper.values()[p];
            if (r == j) {
                has_diag = true;
                v += sigma;
                sigmaSlots_[static_cast<std::size_t>(j)] =
                    static_cast<Index>(values.size());
            }
            pSlots_[static_cast<std::size_t>(p)] =
                static_cast<Index>(values.size());
            row_idx.push_back(r);
            values.push_back(v);
        }
        if (!has_diag) {
            // P column lacks an explicit diagonal; sigma creates one.
            sigmaSlots_[static_cast<std::size_t>(j)] =
                static_cast<Index>(values.size());
            row_idx.push_back(j);
            values.push_back(sigma);
        }
        pHasDiag_[static_cast<std::size_t>(j)] = has_diag;
        col_ptr[static_cast<std::size_t>(j) + 1] =
            static_cast<Index>(values.size());
    }

    // Row-major view of A with back-pointers into its CSC value order.
    std::vector<std::vector<std::pair<Index, Index>>> a_rows(
        static_cast<std::size_t>(m_));
    for (Index c = 0; c < a.cols(); ++c)
        for (Index p = a.colPtr()[c]; p < a.colPtr()[c + 1]; ++p)
            a_rows[static_cast<std::size_t>(a.rowIdx()[p])].emplace_back(
                c, p);

    // (1,2)/(2,2) block columns: A row i above a -1/rho_i diagonal.
    for (Index i = 0; i < m_; ++i) {
        RSQP_ASSERT(rho_vec[static_cast<std::size_t>(i)] > 0.0,
                    "rho must be positive");
        for (const auto& [c, csc_pos] : a_rows[static_cast<std::size_t>(i)]) {
            aSlots_[static_cast<std::size_t>(csc_pos)] =
                static_cast<Index>(values.size());
            row_idx.push_back(c);
            values.push_back(a.values()[csc_pos]);
        }
        rhoSlots_[static_cast<std::size_t>(i)] =
            static_cast<Index>(values.size());
        row_idx.push_back(n_ + i);
        values.push_back(-1.0 / rho_vec[static_cast<std::size_t>(i)]);
        col_ptr[static_cast<std::size_t>(n_ + i) + 1] =
            static_cast<Index>(values.size());
    }

    kkt_ = CscMatrix::fromRaw(dim, dim, std::move(col_ptr),
                              std::move(row_idx), std::move(values));
}

void
KktAssembler::updateRho(const Vector& rho_vec)
{
    RSQP_ASSERT(static_cast<Index>(rho_vec.size()) == m_,
                "rho vector length must be m");
    auto& values = kkt_.values();
    for (Index i = 0; i < m_; ++i) {
        RSQP_ASSERT(rho_vec[static_cast<std::size_t>(i)] > 0.0,
                    "rho must be positive");
        values[static_cast<std::size_t>(
            rhoSlots_[static_cast<std::size_t>(i)])] =
            -1.0 / rho_vec[static_cast<std::size_t>(i)];
    }
}

void
KktAssembler::updateMatrices(const std::vector<Real>& p_values,
                             const std::vector<Real>& a_values)
{
    RSQP_ASSERT(p_values.size() == pSlots_.size(), "P value count");
    RSQP_ASSERT(a_values.size() == aSlots_.size(), "A value count");
    auto& values = kkt_.values();
    for (std::size_t p = 0; p < p_values.size(); ++p)
        values[static_cast<std::size_t>(pSlots_[p])] = p_values[p];
    // Re-apply sigma to every diagonal slot that P contributes to (the
    // slots were just overwritten above when P has an explicit diagonal).
    for (Index j = 0; j < n_; ++j) {
        const auto slot =
            static_cast<std::size_t>(sigmaSlots_[static_cast<std::size_t>(j)]);
        if (pHasDiag_[static_cast<std::size_t>(j)])
            values[slot] += sigma_;
        else
            values[slot] = sigma_;
    }
    for (std::size_t p = 0; p < a_values.size(); ++p)
        values[static_cast<std::size_t>(aSlots_[p])] = a_values[p];
}

ReducedKktOperator::ReducedKktOperator(const CscMatrix& p_upper,
                                       const CscMatrix& a, Real sigma,
                                       Vector rho_vec)
    : pUpper_(&p_upper), a_(&a), sigma_(sigma), rhoVec_(std::move(rho_vec))
{
    RSQP_ASSERT(p_upper.rows() == p_upper.cols(), "P must be square");
    RSQP_ASSERT(a.cols() == p_upper.cols(), "A/P dimension mismatch");
    RSQP_ASSERT(static_cast<Index>(rhoVec_.size()) == a.rows(),
                "rho vector length must be m");
    buildPFull();
    buildAMirror();
    buildABlocks();
    rebuildDiagonalBase();
    rebuildDiagonal();
}

void
ReducedKktOperator::buildPFull()
{
    const Index n = pUpper_->cols();
    const auto& col_ptr = pUpper_->colPtr();
    const auto& row_idx = pUpper_->rowIdx();
    const auto& values = pUpper_->values();
    const std::size_t nnz_upper = values.size();

    pRowPtr_.assign(static_cast<std::size_t>(n) + 1, 0);
    // Full-matrix row lengths: every upper entry (r, c) lands in row r
    // and, off the diagonal, its transpose image lands in row c.
    for (Index c = 0; c < n; ++c) {
        for (Index p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
            const Index r = row_idx[p];
            RSQP_ASSERT(r <= c, "P must be upper-triangular storage");
            ++pRowPtr_[static_cast<std::size_t>(r) + 1];
            if (r != c)
                ++pRowPtr_[static_cast<std::size_t>(c) + 1];
        }
    }
    for (Index r = 0; r < n; ++r)
        pRowPtr_[static_cast<std::size_t>(r) + 1] +=
            pRowPtr_[static_cast<std::size_t>(r)];

    const auto nnz_full =
        static_cast<std::size_t>(pRowPtr_[static_cast<std::size_t>(n)]);
    pColIdx_.resize(nnz_full);
    pVals_.resize(nnz_full);
    pDirectSlot_.resize(nnz_upper);
    pMirrorSlot_.resize(nnz_upper);

    std::vector<Index> cursor(pRowPtr_.begin(), pRowPtr_.end() - 1);
    // The ascending-column scan (rows ascending within each column)
    // emits every full row already sorted: row i collects its
    // transpose images (columns < i) while column i streams past,
    // then its diagonal, then its direct entries (columns > i) from
    // the later columns. The sorted row order is what the striped
    // row-gather kernel reduces over — fixed per row, so the apply is
    // bitwise-deterministic at any thread count and ISA level.
    for (Index c = 0; c < n; ++c) {
        for (Index p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
            const Index r = row_idx[p];
            const Real v = values[p];
            const Index slot = cursor[static_cast<std::size_t>(r)]++;
            pColIdx_[static_cast<std::size_t>(slot)] = c;
            pVals_[static_cast<std::size_t>(slot)] = v;
            pDirectSlot_[static_cast<std::size_t>(p)] = slot;
            if (r != c) {
                const Index mirror =
                    cursor[static_cast<std::size_t>(c)]++;
                pColIdx_[static_cast<std::size_t>(mirror)] = r;
                pVals_[static_cast<std::size_t>(mirror)] = v;
                pMirrorSlot_[static_cast<std::size_t>(p)] = mirror;
            } else {
                pMirrorSlot_[static_cast<std::size_t>(p)] = -1;
            }
        }
    }
}

void
ReducedKktOperator::buildAMirror()
{
    const Index m = a_->rows();
    const auto& col_ptr = a_->colPtr();
    const auto& row_idx = a_->rowIdx();
    const auto& values = a_->values();
    const std::size_t nnz = values.size();

    aRowPtr_.assign(static_cast<std::size_t>(m) + 1, 0);
    for (Index r : row_idx)
        ++aRowPtr_[static_cast<std::size_t>(r) + 1];
    for (Index r = 0; r < m; ++r)
        aRowPtr_[static_cast<std::size_t>(r) + 1] +=
            aRowPtr_[static_cast<std::size_t>(r)];

    aColIdx_.resize(nnz);
    aVals_.resize(nnz);
    aSlotFromCsc_.resize(nnz);

    std::vector<Index> cursor(aRowPtr_.begin(), aRowPtr_.end() - 1);
    for (Index c = 0; c < a_->cols(); ++c) {
        for (Index p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
            const Index r = row_idx[p];
            const Real v = values[static_cast<std::size_t>(p)];
            const Index slot = cursor[static_cast<std::size_t>(r)]++;
            aColIdx_[static_cast<std::size_t>(slot)] = c;
            aVals_[static_cast<std::size_t>(slot)] = v;
            aSlotFromCsc_[static_cast<std::size_t>(p)] = slot;
        }
    }
}

void
ReducedKktOperator::buildABlocks()
{
    const Index m = a_->rows();
    const Count nnz = aRowPtr_.back();
    const Count blocks =
        std::max<Count>(1, (nnz + kKktApplyBlockNnz - 1) / kKktApplyBlockNnz);
    // Block b starts at the first row whose CSR offset reaches b/blocks
    // of the nonzeros; a row longer than a block's share leaves the
    // neighbouring boundary empty, and empty blocks are dropped.
    aBlockRow_.assign(1, 0);
    for (Count b = 1; b < blocks; ++b) {
        const Count target = nnz * b / blocks;
        const auto row = static_cast<Index>(
            std::lower_bound(aRowPtr_.begin(), aRowPtr_.end(), target) -
            aRowPtr_.begin());
        if (row > aBlockRow_.back() && row < m)
            aBlockRow_.push_back(row);
    }
    aBlockRow_.push_back(m);
    blockAcc_.assign((aBlockRow_.size() - 2) * a_->cols(), 0.0);
}

void
ReducedKktOperator::rebuildDiagonalBase()
{
    const Index n = pUpper_->cols();
    diagBase_ = pUpper_->diagonalVector();
    for (Index j = 0; j < n; ++j)
        diagBase_[static_cast<std::size_t>(j)] += sigma_;
}

void
ReducedKktOperator::rebuildDiagonal()
{
    const Index m = a_->rows();
    diag_ = diagBase_;
    // diag(A' diag(rho) A)_j = sum_i rho_i * A_ij^2, scattered from the
    // CSR mirror so rho is read once per row and no row indices are
    // re-gathered: O(nnz(A)) on every rho change.
    for (Index r = 0; r < m; ++r) {
        const Real w = rhoVec_[static_cast<std::size_t>(r)];
        for (Index p = aRowPtr_[static_cast<std::size_t>(r)];
             p < aRowPtr_[static_cast<std::size_t>(r) + 1]; ++p) {
            const Real v = aVals_[static_cast<std::size_t>(p)];
            diag_[static_cast<std::size_t>(
                aColIdx_[static_cast<std::size_t>(p)])] += w * (v * v);
        }
    }
}

void
ReducedKktOperator::apply(const Vector& x, Vector& y) const
{
    TELEMETRY_SPAN("kkt.apply");
    const Index n = pUpper_->cols();
    RSQP_ASSERT(static_cast<Index>(x.size()) == n, "apply: x size");
    y.resize(static_cast<std::size_t>(n));

    const simd::VectorKernels& k = simd::activeKernels();
    {
        // y = (P + sigma I) x on the full symmetric CSR image.
        TELEMETRY_SPAN("kkt.spmv_p");
        parallelForRange(n, [&](Index rb, Index re) {
            k.csrRowsGatherShift(pRowPtr_.data(), pColIdx_.data(),
                                 pVals_.data(), rb, re, sigma_, x.data(),
                                 y.data());
        });
    }
    {
        // y += A' diag(rho) A x in one pass over A's CSR mirror: each
        // row's dot is scattered back while the row is still in cache.
        TELEMETRY_SPAN("kkt.spmv_a");
        const Index blocks = static_cast<Index>(aBlockRow_.size()) - 1;
        const auto block_acc = [&](Index b) {
            return blockAcc_.data() + static_cast<std::size_t>(b - 1) * n;
        };
        const auto run_blocks = [&](Index bb, Index be) {
            for (Index b = bb; b < be; ++b) {
                Real* out = y.data();
                if (b > 0) {
                    out = block_acc(b);
                    std::fill(out, out + n, 0.0);
                }
                const Index rb = aBlockRow_[b];
                const Index re = aBlockRow_[b + 1];
                k.csrRowsRhoScatter(aRowPtr_.data(), aColIdx_.data(),
                                    aVals_.data(), rhoVec_.data(), rb, re,
                                    x.data(), out);
            }
        };
        // Tested here, not left to parallelFor, so a serial apply builds
        // no std::function: the steady-state PCG loop is allocation-free.
        if (blocks > 1 && !ThreadPool::insideWorker() &&
            effectiveNumThreads() > 1)
            ThreadPool::global().parallelFor(0, blocks, 1, run_blocks);
        else
            run_blocks(0, blocks);
        // Every y[c] adds accumulators 1, 2, ... in block order, so the
        // sum does not depend on which thread ran which block.
        if (blocks > 1) {
            parallelForRange(n, [&](Index cb, Index ce) {
                for (Index b = 1; b < blocks; ++b) {
                    const Real* acc = block_acc(b);
                    for (Index c = cb; c < ce; ++c)
                        y[c] += acc[c];
                }
            });
        }
    }
}

void
ReducedKktOperator::applyA(const Vector& x, Vector& z) const
{
    const Index m = a_->rows();
    RSQP_ASSERT(static_cast<Index>(x.size()) == a_->cols(),
                "applyA: x size");
    z.resize(static_cast<std::size_t>(m));
    TELEMETRY_SPAN("kkt.spmv_a");
    const simd::VectorKernels& k = simd::activeKernels();
    parallelForRange(m, [&](Index rb, Index re) {
        for (Index r = rb; r < re; ++r) {
            const Index begin = aRowPtr_[static_cast<std::size_t>(r)];
            z[static_cast<std::size_t>(r)] =
                k.csrRowGather(aVals_.data() + begin,
                               aColIdx_.data() + begin,
                               aRowPtr_[static_cast<std::size_t>(r) + 1] -
                                   begin,
                               x.data());
        }
    });
}

void
ReducedKktOperator::accumulateAtRho(const Vector& x, Vector& y) const
{
    const Index n = a_->cols();
    RSQP_ASSERT(static_cast<Index>(x.size()) == a_->rows(),
                "accumulateAtRho: x size");
    RSQP_ASSERT(static_cast<Index>(y.size()) == n,
                "accumulateAtRho: y size");
    TELEMETRY_SPAN("kkt.spmv_at");
    const auto& col_ptr = a_->colPtr();
    const auto& row_idx = a_->rowIdx();
    const auto& values = a_->values();
    // Precompute w = rho .* x so each column reduces to a pure gather.
    const Index m = a_->rows();
    scratchM_.resize(static_cast<std::size_t>(m));
    for (Index r = 0; r < m; ++r)
        scratchM_[static_cast<std::size_t>(r)] =
            rhoVec_[static_cast<std::size_t>(r)] *
            x[static_cast<std::size_t>(r)];
    const simd::VectorKernels& k = simd::activeKernels();
    parallelForRange(n, [&](Index cb, Index ce) {
        for (Index c = cb; c < ce; ++c) {
            const Index begin = col_ptr[c];
            y[static_cast<std::size_t>(c)] +=
                k.csrRowGather(values.data() + begin,
                               row_idx.data() + begin,
                               col_ptr[c + 1] - begin, scratchM_.data());
        }
    });
}

void
ReducedKktOperator::setRho(const Vector& rho_vec)
{
    RSQP_ASSERT(rho_vec.size() == rhoVec_.size(), "rho length change");
    rhoVec_ = rho_vec;  // copy-assign: reuses the existing capacity
    rebuildDiagonal();
}

void
ReducedKktOperator::refreshValues()
{
    const auto& p_values = pUpper_->values();
    RSQP_ASSERT(p_values.size() == pDirectSlot_.size(),
                "refreshValues: P sparsity changed");
    for (std::size_t p = 0; p < p_values.size(); ++p) {
        const Real v = p_values[p];
        pVals_[static_cast<std::size_t>(pDirectSlot_[p])] = v;
        const Index mirror = pMirrorSlot_[p];
        if (mirror >= 0)
            pVals_[static_cast<std::size_t>(mirror)] = v;
    }

    const auto& a_values = a_->values();
    RSQP_ASSERT(a_values.size() == aSlotFromCsc_.size(),
                "refreshValues: A sparsity changed");
    for (std::size_t p = 0; p < a_values.size(); ++p) {
        const Real v = a_values[p];
        const auto slot =
            static_cast<std::size_t>(aSlotFromCsc_[p]);
        aVals_[slot] = v;
    }

    rebuildDiagonalBase();
    rebuildDiagonal();
}

} // namespace rsqp
