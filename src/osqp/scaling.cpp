#include "scaling.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "linalg/vector_ops.hpp"

namespace rsqp
{

namespace
{

constexpr Real kMinScaling = 1e-4;
constexpr Real kMaxScaling = 1e4;

/** 1/sqrt(norm), guarded for zero norms and clamped to sane bounds. */
Real
equilibrationFactor(Real norm)
{
    if (norm == 0.0)
        return 1.0;
    return clampReal(1.0 / std::sqrt(norm), kMinScaling, kMaxScaling);
}

/**
 * Replace `original`'s values with `values` and write
 * k * row[r] * col[c] * values[p] into `scaled` over the shared
 * pattern (k = 1 multiplies exactly, so E A D rounds as e_r d_c a).
 */
void
rescaleValues(CscMatrix& original, CscMatrix& scaled,
              const std::vector<Real>& values, Real k, const Vector& row,
              const Vector& col)
{
    RSQP_ASSERT(values.size() == original.values().size(),
                "matrix value count mismatch");
    original.values() = values;
    std::vector<Real>& out = scaled.values();
    const std::vector<Index>& col_ptr = scaled.colPtr();
    const std::vector<Index>& row_idx = scaled.rowIdx();
    for (Index c = 0; c < scaled.cols(); ++c)
        for (Index p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
            const auto s = static_cast<std::size_t>(p);
            out[s] = k * row[static_cast<std::size_t>(row_idx[p])] *
                col[static_cast<std::size_t>(c)] * values[s];
        }
}

} // namespace

Scaling
Scaling::identity(Index n, Index m)
{
    Scaling s;
    s.d = constantVector(n, 1.0);
    s.dInv = constantVector(n, 1.0);
    s.e = constantVector(m, 1.0);
    s.eInv = constantVector(m, 1.0);
    return s;
}

Scaling
ruizEquilibrate(QpProblem& problem, Index iterations)
{
    const Index n = problem.numVariables();
    const Index m = problem.numConstraints();
    Scaling scaling = Scaling::identity(n, m);
    if (iterations <= 0)
        return scaling;

    for (Index sweep = 0; sweep < iterations; ++sweep) {
        // Column infinity norms of the symmetric KKT-like stack
        // M = [[P, A'], [A, 0]].
        const Vector p_norms = problem.pUpper.symUpperColumnInfNorms();
        const Vector a_col_norms = problem.a.columnInfNorms();
        const Vector a_row_norms = problem.a.rowInfNorms();

        Vector delta_d(static_cast<std::size_t>(n));
        for (Index j = 0; j < n; ++j)
            delta_d[static_cast<std::size_t>(j)] = equilibrationFactor(
                std::max(p_norms[static_cast<std::size_t>(j)],
                         a_col_norms[static_cast<std::size_t>(j)]));
        Vector delta_e(static_cast<std::size_t>(m));
        for (Index i = 0; i < m; ++i)
            delta_e[static_cast<std::size_t>(i)] = equilibrationFactor(
                a_row_norms[static_cast<std::size_t>(i)]);

        // Apply this sweep's diagonal scaling.
        problem.pUpper.scaleInPlace(delta_d, delta_d);
        for (Index j = 0; j < n; ++j)
            problem.q[static_cast<std::size_t>(j)] *=
                delta_d[static_cast<std::size_t>(j)];
        problem.a.scaleInPlace(delta_e, delta_d);
        for (Index j = 0; j < n; ++j)
            scaling.d[static_cast<std::size_t>(j)] *=
                delta_d[static_cast<std::size_t>(j)];
        for (Index i = 0; i < m; ++i)
            scaling.e[static_cast<std::size_t>(i)] *=
                delta_e[static_cast<std::size_t>(i)];

        // Cost normalization: make the objective O(1).
        const Vector p_norms_now = problem.pUpper.symUpperColumnInfNorms();
        Real mean_p = 0.0;
        for (Real v : p_norms_now)
            mean_p += v;
        if (n > 0)
            mean_p /= static_cast<Real>(n);
        const Real q_norm = normInf(problem.q);
        Real gamma = std::max(mean_p, q_norm);
        gamma = (gamma == 0.0)
            ? 1.0
            : clampReal(1.0 / gamma, kMinScaling, kMaxScaling);
        scale(problem.q, gamma);
        scale(problem.pUpper.values(), gamma);
        scaling.c *= gamma;
    }

    // Scale the bounds once with the accumulated E (infinities stay put).
    for (Index i = 0; i < m; ++i) {
        const Real e_i = scaling.e[static_cast<std::size_t>(i)];
        auto& lo = problem.l[static_cast<std::size_t>(i)];
        auto& hi = problem.u[static_cast<std::size_t>(i)];
        if (lo > -kInf)
            lo *= e_i;
        if (hi < kInf)
            hi *= e_i;
    }

    ewReciprocal(scaling.d, scaling.dInv);
    ewReciprocal(scaling.e, scaling.eInv);
    scaling.cInv = 1.0 / scaling.c;
    return scaling;
}

ScaledQp::ScaledQp(QpProblem problem, Index iterations)
    : original_(std::move(problem)), scaled_(original_),
      scaling_(ruizEquilibrate(scaled_, iterations))
{}

void
ScaledQp::setLinearCost(const Vector& q)
{
    RSQP_ASSERT(q.size() == original_.q.size(), "q size mismatch");
    original_.q = q;
    for (std::size_t j = 0; j < q.size(); ++j)
        scaled_.q[j] = scaling_.c * scaling_.d[j] * q[j];
}

void
ScaledQp::setBounds(const Vector& l, const Vector& u)
{
    const std::size_t m = original_.l.size();
    RSQP_ASSERT(l.size() == m && u.size() == m, "bound size mismatch");
    for (std::size_t i = 0; i < m; ++i)
        if (l[i] > u[i])
            RSQP_FATAL("updateBounds: l > u at constraint ", i);
    original_.l = l;
    original_.u = u;
    for (std::size_t i = 0; i < m; ++i) {
        scaled_.l[i] = (l[i] <= -kInf) ? l[i] : scaling_.e[i] * l[i];
        scaled_.u[i] = (u[i] >= kInf) ? u[i] : scaling_.e[i] * u[i];
    }
}

bool
ScaledQp::setMatrixValues(const std::vector<Real>& p_values,
                          const std::vector<Real>& a_values)
{
    if (!p_values.empty())  // Pb = c D P D
        rescaleValues(original_.pUpper, scaled_.pUpper, p_values,
                      scaling_.c, scaling_.d, scaling_.d);
    if (!a_values.empty())  // Ab = E A D
        rescaleValues(original_.a, scaled_.a, a_values, 1.0, scaling_.e,
                      scaling_.d);
    return !p_values.empty() || !a_values.empty();
}

bool
ScaledQp::scaleWarmStart(const Vector& x, const Vector& y, Vector& xb,
                         Vector& yb) const
{
    const std::size_t n = original_.q.size();
    const std::size_t m = original_.l.size();
    if (x.size() != n || y.size() != m) {
        // A malformed client guess must not take the engine down; the
        // next solve simply starts from its current iterates.
        RSQP_WARN("warmStart ignored: got sizes (", x.size(), ", ",
                  y.size(), "), expected (", n, ", ", m, ")");
        return false;
    }
    xb.resize(n);
    yb.resize(m);
    for (std::size_t j = 0; j < n; ++j)
        xb[j] = scaling_.dInv[j] * x[j];
    for (std::size_t i = 0; i < m; ++i)
        yb[i] = scaling_.c * scaling_.eInv[i] * y[i];
    return true;
}

void
ScaledQp::unscale(const Vector& xb, const Vector& yb, Vector& x,
                  Vector& y) const
{
    const Index n = original_.numVariables();
    const Index m = original_.numConstraints();
    x.resize(static_cast<std::size_t>(n));
    y.resize(static_cast<std::size_t>(m));
    parallelForRange(n, [&](Index jb, Index je) {
        for (Index j = jb; j < je; ++j) {
            const auto s = static_cast<std::size_t>(j);
            x[s] = scaling_.d[s] * xb[s];
        }
    });
    parallelForRange(m, [&](Index ib, Index ie) {
        for (Index i = ib; i < ie; ++i) {
            const auto s = static_cast<std::size_t>(i);
            y[s] = scaling_.cInv * scaling_.e[s] * yb[s];
        }
    });
}

void
ScaledQp::unscale(const Vector& xb, const Vector& yb, const Vector& zb,
                  Vector& x, Vector& y, Vector& z) const
{
    unscale(xb, yb, x, y);
    const Index m = original_.numConstraints();
    z.resize(static_cast<std::size_t>(m));
    parallelForRange(m, [&](Index ib, Index ie) {
        for (Index i = ib; i < ie; ++i) {
            const auto s = static_cast<std::size_t>(i);
            z[s] = scaling_.eInv[s] * zb[s];
        }
    });
}

} // namespace rsqp
