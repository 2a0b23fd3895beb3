/**
 * @file
 * Sequential Quadratic Programming on the accelerator: the paper's
 * introduction names SQP subproblems as a prime consumer of fast QP
 * solves. This example minimizes a nonconvex objective under linear
 * constraints by solving a sequence of convex QP subproblems — all on
 * ONE generated architecture, because an SQP iteration changes only
 * the numeric values of P (the Hessian approximation) and q (the
 * gradient), never the sparsity structure.
 *
 *   minimize   f(x) = sum_i 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2
 *   subject to sum_i x_i = n/2,   -2 <= x_i <= 2
 *
 * (a chained Rosenbrock valley with a coupling equality.)
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "rsqp_api.hpp"

using namespace rsqp;

namespace
{

constexpr Index kDim = 12;

/** Rosenbrock chain value. */
Real
objective(const Vector& x)
{
    Real f = 0.0;
    for (Index i = 0; i + 1 < kDim; ++i) {
        const Real a = x[i + 1] - x[i] * x[i];
        const Real b = 1.0 - x[i];
        f += 100.0 * a * a + b * b;
    }
    return f;
}

/** Gradient of the Rosenbrock chain. */
Vector
gradient(const Vector& x)
{
    Vector g(kDim, 0.0);
    for (Index i = 0; i + 1 < kDim; ++i) {
        const Real a = x[i + 1] - x[i] * x[i];
        g[i] += -400.0 * x[i] * a - 2.0 * (1.0 - x[i]);
        g[i + 1] += 200.0 * a;
    }
    return g;
}

/**
 * Gauss-Newton Hessian on the fixed tridiagonal pattern (diagonal +
 * superdiagonal, upper storage). As a sum of residual-Jacobian outer
 * products plus a small regularizer it is positive definite by
 * construction — the convex model SQP needs.
 *
 * Residuals: a_i = x_{i+1} - x_i^2 (weight 100), b_i = 1 - x_i.
 */
std::vector<Real>
hessianValues(const Vector& x)
{
    Vector diag(kDim, 1.0);  // regularizer
    Vector off(kDim, 0.0);   // off[j] = H(j-1, j)
    for (Index i = 0; i + 1 < kDim; ++i) {
        // 200 * (da_i)'(da_i) with da_i = [-2 x_i, 1].
        diag[i] += 800.0 * x[i] * x[i];
        diag[i + 1] += 200.0;
        off[i + 1] += -400.0 * x[i];
        // 2 * (db_i)'(db_i) with db_i = [-1].
        diag[i] += 2.0;
    }
    // Pattern order matches the CSC upper layout built in main():
    // column 0: (0,0); column j>0: (j-1,j) then (j,j).
    std::vector<Real> values;
    for (Index j = 0; j < kDim; ++j) {
        if (j > 0)
            values.push_back(off[j]);
        values.push_back(diag[j]);
    }
    return values;
}

} // namespace

int
main()
{
    // Fixed QP skeleton: tridiagonal P, budget equality + boxes.
    QpBuilder builder(kDim);
    for (Index j = 0; j < kDim; ++j) {
        builder.quadraticCost(j, j, 1.0);
        if (j > 0)
            builder.quadraticCost(j - 1, j, 0.1);
    }
    std::vector<std::pair<Index, Real>> budget;
    for (Index j = 0; j < kDim; ++j)
        budget.emplace_back(j, 1.0);
    builder.addEquality(static_cast<Real>(kDim) / 2.0, budget);
    for (Index j = 0; j < kDim; ++j)
        builder.addBox(j, -2.0, 2.0);
    QpProblem qp = builder.build("sqp_subproblem");

    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    settings.epsAbs = 1e-6;
    settings.epsRel = 1e-6;
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, settings, custom);
    std::printf("architecture %s generated once for the whole SQP "
                "run\n\n",
                solver.config().name().c_str());

    Vector x(kDim, 0.0);  // feasible-ish start
    for (Index j = 0; j < kDim; ++j)
        x[j] = 0.5;

    std::printf("%4s %14s %12s %10s %6s\n", "it", "f(x)", "|step|",
                "device_us", "qp_it");
    Count total_cycles = 0;
    for (int iter = 0; iter < 15; ++iter) {
        // Build the local QP: min 0.5 d'Hd + g'd around x, with the
        // original constraints shifted by x.
        solver.updateMatrixValues(hessianValues(x), {});
        solver.updateLinearCost(gradient(x));
        Vector l = qp.l;
        Vector u = qp.u;
        // Equality row: sum(x + d) = n/2  ->  sum d = n/2 - sum x.
        Real sum_x = 0.0;
        for (Real v : x)
            sum_x += v;
        l[0] = u[0] = static_cast<Real>(kDim) / 2.0 - sum_x;
        // Boxes: -2 <= x + d <= 2.
        for (Index j = 0; j < kDim; ++j) {
            l[1 + j] = -2.0 - x[j];
            u[1 + j] = 2.0 - x[j];
        }
        solver.updateBounds(l, u);

        const OsqpResult step = solver.solve();
        if (step.info.status != SolveStatus::Solved) {
            std::printf("subproblem failed: %s\n",
                        statusToString(step.info.status));
            return 1;
        }
        total_cycles += step.machineStats.totalCycles;

        // Damped update with a simple backtracking line search.
        Real alpha = 1.0;
        const Real f0 = objective(x);
        Vector trial(kDim);
        while (alpha > 1e-4) {
            for (Index j = 0; j < kDim; ++j)
                trial[j] = x[j] + alpha * step.x[j];
            if (objective(trial) < f0)
                break;
            alpha *= 0.5;
        }
        Real step_norm = 0.0;
        for (Index j = 0; j < kDim; ++j) {
            const Real dx = alpha * step.x[j];
            step_norm = std::max(step_norm, std::abs(dx));
            x[j] += dx;
        }
        std::printf("%4d %14.6f %12.3e %10.1f %6d\n", iter,
                    objective(x), step_norm,
                    step.deviceSeconds * 1e6, step.info.iterations);
        if (step_norm < 1e-6)
            break;
    }
    std::printf("\nfinal f(x) = %.8f; %lld total device cycles for "
                "the SQP run\n",
                objective(x), static_cast<long long>(total_cycles));
    std::printf("(one architecture, %d parametric re-solves — the "
                "paper's SQP use case)\n", 15);
    return 0;
}
