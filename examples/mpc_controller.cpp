/**
 * @file
 * Model-predictive-control example: a receding-horizon controller
 * solving one QP per control step on a single generated architecture.
 *
 * This is the deployment pattern the paper's amortization argument
 * targets: the sparsity structure is fixed by the plant model, so the
 * (expensive, offline) customization is reused every step, while q and
 * the bounds change with the measured state.
 */

#include <cmath>
#include <cstdio>

#include "rsqp_api.hpp"

using namespace rsqp;

int
main()
{
    // Plant + horizon are fixed -> one QP structure for the whole run.
    const Index nx = 8;
    Rng rng(2024);
    QpProblem qp = generateControl(nx, rng);
    std::printf("MPC problem: n=%d variables, m=%d constraints, "
                "nnz=%lld\n",
                qp.numVariables(), qp.numConstraints(),
                static_cast<long long>(qp.totalNnz()));

    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;

    // Offline: customize the architecture once.
    Timer setup_timer;
    CustomizeSettings custom;
    custom.c = 32;
    RsqpSolver controller(qp, settings, custom);
    std::printf("architecture %s generated in %.1f ms (offline)\n",
                controller.config().name().c_str(),
                setup_timer.seconds() * 1e3);
    std::printf("eta = %.3f\n", controller.customization().eta());

    // Online: closed-loop control. Each step perturbs the tracking
    // cost (new reference) and re-solves with a warm start.
    const int steps = 10;
    Count total_cycles = 0;
    Index total_iters = 0;
    OsqpResult result = controller.solve();
    for (int step = 0; step < steps; ++step) {
        Vector q = qp.q;
        for (std::size_t j = 0; j < q.size(); ++j)
            q[j] = 0.05 * std::sin(0.3 * step + 0.01 *
                                   static_cast<Real>(j));
        controller.updateLinearCost(q);
        controller.warmStart(result.x, result.y);
        result = controller.solve();
        total_cycles += result.machineStats.totalCycles;
        total_iters += result.info.iterations;
        std::printf("step %2d: %-9s iters=%3d  device=%7.1f us  "
                    "u0=%+.4f\n",
                    step, statusToString(result.info.status),
                    result.info.iterations, result.deviceSeconds * 1e6,
                    result.x[static_cast<std::size_t>(
                        10 * nx)]);  // first input variable
    }
    std::printf("\ntotals: %d ADMM iterations, %lld device cycles, "
                "%.2f ms simulated control time for %d steps\n",
                total_iters, static_cast<long long>(total_cycles),
                static_cast<double>(total_cycles) /
                    (estimateFmaxMhz(controller.config()) * 1e3),
                steps);
    return 0;
}
