/**
 * @file
 * Lasso regularization path: sweep the l1 penalty from loose to tight
 * on one generated architecture, warm starting every solve — the
 * classic parametric sequence for data-assimilation workloads (one of
 * the application domains motivating the paper).
 *
 * Only q changes along the path (the penalty enters through the linear
 * cost on the t variables), so the sparsity structure — and therefore
 * the customized hardware — is reused for the whole sweep.
 */

#include <cmath>
#include <cstdio>

#include "rsqp_api.hpp"

using namespace rsqp;

int
main()
{
    const Index features = 40;
    Rng rng(31);
    QpProblem qp = generateLasso(features, rng);
    const Index n_tot = qp.numVariables();
    const Index md = n_tot - 2 * features;  // data rows
    std::printf("lasso: %d features, %d data rows, nnz=%lld\n",
                features, md, static_cast<long long>(qp.totalNnz()));

    // The generator's lambda is the largest q entry on the t block.
    Real lambda_max = 0.0;
    for (Index j = features + md; j < n_tot; ++j)
        lambda_max = std::max(lambda_max,
                              qp.q[static_cast<std::size_t>(j)]);
    std::printf("lambda_max = %.4f\n\n", lambda_max);

    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    CustomizeSettings custom;
    custom.c = 32;
    RsqpSolver solver(qp, settings, custom);
    std::printf("architecture: %s (eta = %.3f)\n\n",
                solver.config().name().c_str(),
                solver.customization().eta());

    std::printf("%-10s %-9s %6s %12s %10s %9s\n", "lambda", "status",
                "iters", "device_us", "nonzeros", "obj");
    const int path_points = 12;
    OsqpResult result;
    bool warm = false;
    for (int k = 0; k < path_points; ++k) {
        // Geometric path from lambda_max down to lambda_max / 100.
        const Real lambda = lambda_max *
            std::pow(0.01, static_cast<Real>(k) / (path_points - 1));
        Vector q = qp.q;
        for (Index j = features + md; j < n_tot; ++j)
            q[static_cast<std::size_t>(j)] = lambda;
        solver.updateLinearCost(q);
        if (warm)
            solver.warmStart(result.x, result.y);
        result = solver.solve();
        warm = true;

        // Count the selected features (|x_j| above a small threshold).
        Index selected = 0;
        for (Index j = 0; j < features; ++j)
            if (std::abs(result.x[static_cast<std::size_t>(j)]) > 1e-4)
                ++selected;
        std::printf("%-10.4f %-9s %6d %12.1f %10d %9.3f\n", lambda,
                    statusToString(result.info.status),
                    result.info.iterations, result.deviceSeconds * 1e6,
                    selected,
                    result.info.objective);
    }
    std::printf("\nthe support grows monotonically as lambda shrinks; "
                "every point reused the\nsame generated architecture "
                "with a warm start.\n");
    return 0;
}
