#include "residuals.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "linalg/vector_ops.hpp"

namespace rsqp
{

ResidualInfo
computeResiduals(const QpProblem& problem, const Vector& x,
                 const Vector& y, const Vector& z, Real eps_abs,
                 Real eps_rel)
{
    ResidualInfo info;
    Vector ax;
    problem.a.spmv(x, ax);
    info.primRes = normInfDiff(ax, z);
    info.epsPrim = eps_abs +
        eps_rel * std::max(normInf(ax), normInf(z));

    Vector px;
    problem.pUpper.spmvSymUpper(x, px);
    Vector aty;
    problem.a.spmvTranspose(y, aty);
    Real dual = 0.0;
    for (std::size_t j = 0; j < px.size(); ++j)
        dual = std::max(dual,
                        std::abs(px[j] + problem.q[j] + aty[j]));
    info.dualRes = dual;
    info.epsDual = eps_abs +
        eps_rel * std::max({normInf(px), normInf(aty),
                            normInf(problem.q)});
    return info;
}

void
reportReturnedResiduals(const QpProblem& problem,
                        const OsqpSettings& settings, OsqpResult& result)
{
    OsqpInfo& info = result.info;
    const ResidualInfo res =
        computeResiduals(problem, result.x, result.y, result.z,
                         settings.epsAbs, settings.epsRel);
    info.primRes = res.primRes;
    info.dualRes = res.dualRes;
    std::vector<ResidualSample>& tail = info.telemetry.residualTail;
    if (!tail.empty() && tail.back().iteration == info.iterations)
        tail.pop_back();
    info.telemetry.pushResidual(info.iterations, res.primRes,
                                res.dualRes);
}

bool
checkPrimalInfeasibility(const QpProblem& problem, const Vector& delta_y,
                         Real eps_prim_inf)
{
    const Real norm_dy = normInf(delta_y);
    if (norm_dy <= eps_prim_inf)
        return false;
    // Certificate: A' dy ~ 0 and u'(dy)+ + l'(dy)- sufficiently negative.
    Vector at_dy;
    problem.a.spmvTranspose(delta_y, at_dy);
    if (normInf(at_dy) > eps_prim_inf * norm_dy)
        return false;
    Real support = 0.0;
    for (Index i = 0; i < problem.numConstraints(); ++i) {
        const Real dy_i = delta_y[static_cast<std::size_t>(i)];
        if (dy_i > 0.0) {
            const Real u_i = problem.u[static_cast<std::size_t>(i)];
            if (u_i >= kInf)
                return false;
            support += u_i * dy_i;
        } else if (dy_i < 0.0) {
            const Real l_i = problem.l[static_cast<std::size_t>(i)];
            if (l_i <= -kInf)
                return false;
            support += l_i * dy_i;
        }
    }
    return support <= -eps_prim_inf * norm_dy;
}

bool
checkDualInfeasibility(const QpProblem& problem, const Vector& delta_x,
                       Real eps_dual_inf)
{
    const Real norm_dx = normInf(delta_x);
    if (norm_dx <= eps_dual_inf)
        return false;
    if (dot(problem.q, delta_x) > -eps_dual_inf * norm_dx)
        return false;
    Vector p_dx;
    problem.pUpper.spmvSymUpper(delta_x, p_dx);
    if (normInf(p_dx) > eps_dual_inf * norm_dx)
        return false;
    Vector a_dx;
    problem.a.spmv(delta_x, a_dx);
    const Real tol = eps_dual_inf * norm_dx;
    for (Index i = 0; i < problem.numConstraints(); ++i) {
        const Real v = a_dx[static_cast<std::size_t>(i)];
        if (problem.u[static_cast<std::size_t>(i)] < kInf && v > tol)
            return false;
        if (problem.l[static_cast<std::size_t>(i)] > -kInf && v < -tol)
            return false;
    }
    return true;
}

} // namespace rsqp
