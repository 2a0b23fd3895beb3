/**
 * @file
 * Portfolio-optimization backtest: the paper's amortization example.
 * A trading strategy re-solves the same Markowitz QP structure with a
 * new expected-return vector every rebalancing period; the hardware
 * generation cost is paid once and amortized over the whole backtest
 * (the paper cites 120 000 solves over 2 years of data).
 */

#include <cstdio>

#include "rsqp_api.hpp"

using namespace rsqp;

int
main()
{
    const Index assets = 60;
    Rng rng(7);
    QpProblem qp = generatePortfolio(assets, rng);
    std::printf("portfolio QP: %d assets (+%d factors), m=%d, "
                "nnz=%lld\n",
                assets, qp.numVariables() - assets,
                qp.numConstraints(),
                static_cast<long long>(qp.totalNnz()));

    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;

    // Offline customization (in deployment: HLS + place&route, hours;
    // here: the simulated equivalent, milliseconds).
    CustomizeSettings custom;
    custom.c = 64;
    RsqpSolver solver(qp, settings, custom);
    std::printf("generated architecture: %s (eta = %.3f, fmax = %.0f "
                "MHz)\n\n",
                solver.config().name().c_str(),
                solver.customization().eta(),
                estimateFmaxMhz(solver.config()));

    // Backtest: a random walk of expected returns; rebalance daily.
    const int periods = 25;
    Vector mu(static_cast<std::size_t>(assets));
    for (Real& v : mu)
        v = rng.normal(0.0, 0.2);

    double device_seconds_total = 0.0;
    OsqpResult result = solver.solve();
    Real prev_top_weight = 0.0;
    for (int t = 0; t < periods; ++t) {
        // Returns drift.
        for (Real& v : mu)
            v += rng.normal(0.0, 0.05);
        Vector q = qp.q;
        for (Index j = 0; j < assets; ++j)
            q[static_cast<std::size_t>(j)] = -mu[
                static_cast<std::size_t>(j)];
        solver.updateLinearCost(q);
        solver.warmStart(result.x, result.y);
        result = solver.solve();
        device_seconds_total += result.deviceSeconds;

        // Portfolio summary: largest position.
        Real top = 0.0;
        Index top_asset = 0;
        for (Index j = 0; j < assets; ++j) {
            if (result.x[static_cast<std::size_t>(j)] > top) {
                top = result.x[static_cast<std::size_t>(j)];
                top_asset = j;
            }
        }
        if (t % 5 == 0 || t == periods - 1)
            std::printf("period %2d: %-9s iters=%3d  device=%7.1f us  "
                        "top asset #%d (%.1f %%)\n",
                        t, statusToString(result.info.status),
                        result.info.iterations,
                        result.deviceSeconds * 1e6, top_asset,
                        100.0 * top);
        prev_top_weight = top;
    }
    (void)prev_top_weight;

    std::printf("\nbacktest of %d periods: %.2f ms simulated device "
                "time total (%.1f us/solve)\n",
                periods, device_seconds_total * 1e3,
                device_seconds_total / periods * 1e6);
    std::printf("paper's amortization: ~120000 such solves repay the "
                "2-5 h CAD run\n");
    return 0;
}
