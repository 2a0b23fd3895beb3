/**
 * @file
 * Backend comparison: one QP, every first-order engine.
 *
 * Solves a single control-domain QP (tall, mixed equality/inequality
 * constraint set — the shape the backend selector routes to PDHG)
 * with each BackendKind through the makeBackend factory and prints an
 * iteration/latency table, plus the selector's reasoning: the feature
 * vector it extracted and the engine it picked.
 *
 * The solves run with adaptiveRho off so every engine brings its own
 * step-size policy: plain ADMM is the fixed-penalty baseline, PDHG
 * adapts its primal weight at restarts, and Auto runs the selector's
 * pick, chosen once at setup.
 */

#include <cstdio>

#include "backends/backend_selector.hpp"
#include "rsqp_api.hpp"

using namespace rsqp;

int
main()
{
    const QpProblem qp = generateProblem(Domain::Control, 30, 7);
    std::printf("problem: %s  n=%d m=%d nnz=%lld\n", qp.name.c_str(),
                qp.numVariables(), qp.numConstraints(),
                static_cast<long long>(qp.totalNnz()));

    // What the selector sees, and what it would pick.
    const BackendFeatures features = computeBackendFeatures(qp);
    std::printf("features: equality=%.2f tall=%.2f\n",
                features.equalityFraction, features.tallRatio);
    std::printf("selector pick: %s\n\n",
                backendKindName(chooseBackend(features)));

    OsqpSettings settings;
    settings.adaptiveRho = false;  // each engine's own step policy
    settings.maxIter = 20000;

    std::printf("%-12s %-12s %-10s %8s %8s %10s %12s\n", "backend",
                "finished_on", "status", "iters", "restarts", "ms",
                "objective");
    for (BackendKind kind :
         {BackendKind::Admm, BackendKind::Pdhg, BackendKind::Auto}) {
        OsqpSettings run_settings = settings;
        run_settings.firstOrder.method = kind;
        std::unique_ptr<QpBackend> backend =
            makeBackend(qp, std::move(run_settings));
        const OsqpResult result = backend->solve();
        std::printf("%-12s %-12s %-10s %8d %8lld %10.2f %12.6f\n",
                    backendKindName(kind),
                    result.info.telemetry.backend.c_str(),
                    statusToString(result.info.status),
                    result.info.iterations,
                    static_cast<long long>(
                        result.info.telemetry.restarts),
                    result.info.solveTime * 1e3,
                    result.info.objective);
    }
    return 0;
}
