#include "checker.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench
{

using rsqp::Index;
using rsqp::Vector;

namespace
{

double
normInf(const Vector& v)
{
    double norm = 0.0;
    for (double value : v)
        norm = std::max(norm, std::abs(value));
    return norm;
}

} // namespace

CheckResult
checkAnswer(const rsqp::CscMatrix& p_upper, const Vector& q,
            const rsqp::CscMatrix& a, const Vector& l, const Vector& u,
            const Vector& x, const Vector& y, double eps_abs,
            double eps_rel)
{
    CheckResult result;
    const std::size_t n = static_cast<std::size_t>(p_upper.cols());
    const std::size_t m = static_cast<std::size_t>(a.rows());
    if (x.size() != n || y.size() != m) {
        result.finite = false;
        return result;
    }
    for (double v : x)
        result.finite = result.finite && std::isfinite(v);
    for (double v : y)
        result.finite = result.finite && std::isfinite(v);
    if (!result.finite)
        return result;

    // P x from the upper triangle: each stored (i, j) with i != j also
    // contributes its mirror (j, i).
    Vector px(n, 0.0);
    const auto& pCol = p_upper.colPtr();
    const auto& pRow = p_upper.rowIdx();
    const auto& pVal = p_upper.values();
    for (std::size_t j = 0; j < n; ++j)
        for (Index k = pCol[j]; k < pCol[j + 1]; ++k) {
            const auto i = static_cast<std::size_t>(pRow[k]);
            const double v = pVal[static_cast<std::size_t>(k)];
            px[i] += v * x[j];
            if (i != j)
                px[j] += v * x[i];
        }

    // A x and A' y in one pass over the columns of A.
    Vector ax(m, 0.0), aty(n, 0.0);
    const auto& aCol = a.colPtr();
    const auto& aRow = a.rowIdx();
    const auto& aVal = a.values();
    for (std::size_t j = 0; j < n; ++j)
        for (Index k = aCol[j]; k < aCol[j + 1]; ++k) {
            const auto i = static_cast<std::size_t>(aRow[k]);
            const double v = aVal[static_cast<std::size_t>(k)];
            ax[i] += v * x[j];
            aty[j] += v * y[i];
        }

    Vector projected(m);
    for (std::size_t i = 0; i < m; ++i) {
        projected[i] = std::clamp(ax[i], l[i], u[i]);
        result.primalResidual =
            std::max(result.primalResidual, std::abs(ax[i] - projected[i]));
    }
    for (std::size_t j = 0; j < n; ++j)
        result.dualResidual = std::max(
            result.dualResidual, std::abs(px[j] + q[j] + aty[j]));

    result.primalTolerance =
        kSlack * (eps_abs + eps_rel * std::max(normInf(ax),
                                               normInf(projected)));
    result.dualTolerance =
        kSlack * (eps_abs + eps_rel * std::max({normInf(px), normInf(aty),
                                                normInf(q)}));
    return result;
}

} // namespace perfbench
