/**
 * @file
 * Shared helpers for the RSQP test suite: random sparse matrices,
 * dense reference conversions and comparison utilities.
 */

#ifndef RSQP_TESTS_TEST_UTIL_HPP
#define RSQP_TESTS_TEST_UTIL_HPP

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "linalg/csc.hpp"
#include "linalg/csr.hpp"
#include "osqp/problem.hpp"

namespace rsqp::test
{

/** Random sparse matrix with the given density (at least one entry). */
inline CscMatrix
randomSparse(Index rows, Index cols, Real density, Rng& rng)
{
    TripletList triplets(rows, cols);
    for (Index r = 0; r < rows; ++r)
        for (Index c = 0; c < cols; ++c)
            if (rng.bernoulli(density))
                triplets.add(r, c, rng.normal());
    if (triplets.empty())
        triplets.add(0, 0, 1.0);
    return CscMatrix::fromTriplets(triplets);
}

/** Random symmetric positive definite matrix in upper-CSC storage. */
inline CscMatrix
randomSpdUpper(Index n, Real density, Rng& rng)
{
    TripletList triplets(n, n);
    std::vector<Real> row_abs(static_cast<std::size_t>(n), 0.0);
    for (Index i = 0; i < n; ++i)
        for (Index j = i + 1; j < n; ++j)
            if (rng.bernoulli(density)) {
                const Real v = rng.normal();
                triplets.add(i, j, v);
                row_abs[static_cast<std::size_t>(i)] += std::abs(v);
                row_abs[static_cast<std::size_t>(j)] += std::abs(v);
            }
    for (Index i = 0; i < n; ++i)
        triplets.add(i, i, row_abs[static_cast<std::size_t>(i)] + 1.0);
    return CscMatrix::fromTriplets(triplets);
}

/** Dense row-major copy of a CSC matrix. */
inline std::vector<std::vector<Real>>
toDense(const CscMatrix& matrix)
{
    std::vector<std::vector<Real>> dense(
        static_cast<std::size_t>(matrix.rows()),
        std::vector<Real>(static_cast<std::size_t>(matrix.cols()), 0.0));
    for (Index c = 0; c < matrix.cols(); ++c)
        for (Index p = matrix.colPtr()[c]; p < matrix.colPtr()[c + 1]; ++p)
            dense[static_cast<std::size_t>(matrix.rowIdx()[p])]
                 [static_cast<std::size_t>(c)] = matrix.values()[p];
    return dense;
}

/** Random dense vector with N(0, 1) entries. */
inline Vector
randomVector(Index n, Rng& rng)
{
    Vector v(static_cast<std::size_t>(n));
    for (Real& x : v)
        x = rng.normal();
    return v;
}

/**
 * A nonconvex QP that passes validation: P is upper tridiagonal with
 * 0.1 on its (nonnegative) diagonal and 2 + U(0, 1) above it, so it is
 * indefinite; q is N(0, 1), A = I, and every even row is boxed to
 * [-1, 1] while the odd rows are free. PCG breaks down on its KKT
 * steps and the ADMM and PDHG residuals blow up on it — the real input
 * that drives the recovery machinery.
 */
inline QpProblem
indefiniteQp(Index n, std::uint64_t seed)
{
    Rng rng(seed);
    TripletList p(n, n);
    for (Index i = 0; i < n; ++i) {
        p.add(i, i, 0.1);
        if (i + 1 < n)
            p.add(i, i + 1, 2.0 + rng.uniform());
    }
    QpProblem qp;
    qp.pUpper = CscMatrix::fromTriplets(p);
    qp.q = randomVector(n, rng);
    TripletList a(n, n);
    for (Index i = 0; i < n; ++i)
        a.add(i, i, 1.0);
    qp.a = CscMatrix::fromTriplets(a);
    qp.l.assign(static_cast<std::size_t>(n), -kInf);
    qp.u.assign(static_cast<std::size_t>(n), kInf);
    for (Index i = 0; i < n; i += 2) {
        qp.l[static_cast<std::size_t>(i)] = -1.0;
        qp.u[static_cast<std::size_t>(i)] = 1.0;
    }
    qp.name = "indefinite";
    return qp;
}

/** EXPECT that two vectors agree within an absolute tolerance. */
inline void
expectVectorsNear(const Vector& a, const Vector& b, Real tol,
                  const char* what = "vector")
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i], b[i], tol) << what << " differs at " << i;
}

/** Infinity-norm distance of two vectors. */
inline Real
maxAbsDiff(const Vector& a, const Vector& b)
{
    Real best = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        best = std::max(best, std::abs(a[i] - b[i]));
    return best;
}

} // namespace rsqp::test

#endif // RSQP_TESTS_TEST_UTIL_HPP
