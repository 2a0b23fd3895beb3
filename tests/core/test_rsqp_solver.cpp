/**
 * @file
 * End-to-end RsqpSolver tests: solution quality, customization
 * speedup in cycles (the Fig. 10 effect), parametric reuse and warm
 * starting on the generated architecture, a diverging run ending in a
 * typed status with finite iterates, and a threaded simulated machine
 * (ArchConfig::numThreads) reproducing the serial one exactly.
 */

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "core/rsqp_solver.hpp"
#include "hwmodel/resources.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/solver.hpp"
#include "problems/suite.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

OsqpSettings
settingsFor()
{
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    return settings;
}

TEST(RsqpSolver, SolvesAndReportsMetadata)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 50, 21);
    CustomizeSettings custom;
    custom.c = 32;
    RsqpSolver solver(qp, settingsFor(), custom);
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    EXPECT_GT(result.info.iterations, 0);
    EXPECT_GT(result.machineStats.totalCycles, 0);
    EXPECT_GT(estimateFmaxMhz(solver.config()), 50.0);
    EXPECT_GT(result.deviceSeconds, 0.0);
    EXPECT_GT(result.eta, 0.0);
    EXPECT_LE(result.eta, 1.0);
    EXPECT_NE(solver.config().name().find("32{"), std::string::npos);
}

TEST(RsqpSolver, SolveTimeIsHostWallClock)
{
    // Modeled device time lives only in deviceSeconds; the solve-time
    // fields hold the host wall clock, as on the host engines. Direct
    // use takes no service route.
    const QpProblem qp = generateProblem(Domain::Control, 10, 3);
    RsqpSolver solver(qp, settingsFor(), CustomizeSettings{});
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    EXPECT_GT(result.info.solveTime, 0.0);
    EXPECT_EQ(result.info.telemetry.solveSeconds, result.info.solveTime);
    EXPECT_GT(result.deviceSeconds, 0.0);
    EXPECT_EQ(result.info.telemetry.route, SolveRoute::None);
    EXPECT_EQ(solver.kind(), BackendKind::Admm);
    EXPECT_EQ(result.info.telemetry.backend, solver.name());
}

TEST(RsqpSolver, SolutionIsKktOptimal)
{
    const QpProblem qp = generateProblem(Domain::Svm, 25, 23);
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, settingsFor(), custom);
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);

    // Unscaled residuals must satisfy the default tolerances.
    Vector ax;
    qp.a.spmv(result.x, ax);
    EXPECT_LT(normInfDiff(ax, result.z), 1e-2);
    Vector px;
    qp.pUpper.spmvSymUpper(result.x, px);
    Vector aty;
    qp.a.spmvTranspose(result.y, aty);
    Real dual = 0.0;
    for (std::size_t j = 0; j < px.size(); ++j)
        dual = std::max(dual,
                        std::abs(px[j] + qp.q[j] + aty[j]));
    EXPECT_LT(dual, 1e-2);
}

TEST(RsqpSolver, CustomizationSpeedsUpCycles)
{
    // The Fig. 10 effect on one problem: same solve, fewer cycles.
    const QpProblem qp = generateProblem(Domain::Lasso, 40, 25);
    const OsqpSettings settings = settingsFor();

    CustomizeSettings base_settings;
    base_settings.c = 64;
    base_settings.customizeStructures = false;
    base_settings.compressCvb = false;
    RsqpSolver baseline(qp, settings, base_settings);
    const OsqpResult rb = baseline.solve();

    CustomizeSettings custom_settings;
    custom_settings.c = 64;
    RsqpSolver customized(qp, settings, custom_settings);
    const OsqpResult rc = customized.solve();

    ASSERT_EQ(rb.info.status, SolveStatus::Solved);
    ASSERT_EQ(rc.info.status, SolveStatus::Solved);
    EXPECT_GT(rc.eta, rb.eta);
    // Customized architecture takes measurably fewer cycles.
    EXPECT_LT(static_cast<Real>(rc.machineStats.totalCycles),
              0.9 * static_cast<Real>(rb.machineStats.totalCycles));
}

TEST(RsqpSolver, ParametricCostUpdateReusesArchitecture)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 40, 27);
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, settingsFor(), custom);
    const OsqpResult first = solver.solve();
    ASSERT_EQ(first.info.status, SolveStatus::Solved);

    Vector q2 = qp.q;
    for (Real& v : q2)
        v *= 0.8;
    solver.updateLinearCost(q2);
    solver.warmStart(first.x, first.y);
    const OsqpResult second = solver.solve();
    ASSERT_EQ(second.info.status, SolveStatus::Solved);

    // Reference solution for the updated problem.
    QpProblem qp2 = qp;
    qp2.q = q2;
    OsqpSolver reference(qp2, settingsFor());
    const OsqpResult ref = reference.solve();
    EXPECT_NEAR(second.info.objective, ref.info.objective,
                1e-2 * (1.0 + std::abs(ref.info.objective)));
    // Warm start converges in fewer iterations than cold start.
    EXPECT_LE(second.info.iterations, first.info.iterations);
}

TEST(RsqpSolver, DefaultThreadCountSpendsNoSystemTime)
{
    // Tiny parametric re-solves at default settings (numThreads = 0)
    // must stay out of the kernel: the hardware thread count is read
    // once per process, and a small SpMV never asks for it.
    const QpProblem qp = generateProblem(Domain::Control, 4, 1);
    RsqpSolver solver(qp, OsqpSettings{}, CustomizeSettings{});
    ASSERT_EQ(solver.solve().info.status, SolveStatus::Solved);

    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
            1e-6 * static_cast<double>(t.tv_usec);
    };
    rusage before{};
    ASSERT_EQ(getrusage(RUSAGE_THREAD, &before), 0);
    Vector q = qp.q;
    for (int k = 0; k < 200; ++k) {
        for (std::size_t i = 0; i < q.size(); ++i)
            q[i] = qp.q[i] * (1.0 + 1e-3 * static_cast<Real>((k + i) % 7));
        solver.updateLinearCost(q);
        solver.solve();
    }
    rusage after{};
    ASSERT_EQ(getrusage(RUSAGE_THREAD, &after), 0);

    const double user = seconds(after.ru_utime) - seconds(before.ru_utime);
    const double sys = seconds(after.ru_stime) - seconds(before.ru_stime);
    ASSERT_GT(user + sys, 0.0);
    EXPECT_LE(sys, 0.1 * (user + sys))
        << "user " << user << " s, system " << sys << " s";
}

TEST(RsqpSolver, BoundsUpdateMatchesReference)
{
    const QpProblem qp = generateProblem(Domain::Svm, 15, 29);
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, settingsFor(), custom);
    solver.solve();

    Vector l2 = qp.l;
    Vector u2 = qp.u;
    for (std::size_t i = 0; i < l2.size(); ++i)
        if (u2[i] < kInf)
            u2[i] += 0.5;
    solver.updateBounds(l2, u2);
    const OsqpResult updated = solver.solve();
    ASSERT_EQ(updated.info.status, SolveStatus::Solved);

    QpProblem qp2 = qp;
    qp2.l = l2;
    qp2.u = u2;
    OsqpSolver reference(qp2, settingsFor());
    const OsqpResult ref = reference.solve();
    EXPECT_NEAR(updated.info.objective, ref.info.objective,
                1e-2 * (1.0 + std::abs(ref.info.objective)));
}

TEST(RsqpSolver, WiderDatapathFewerCycles)
{
    const QpProblem qp = generateProblem(Domain::Huber, 30, 31);
    const OsqpSettings settings = settingsFor();
    Count cycles_16 = 0, cycles_64 = 0;
    {
        CustomizeSettings custom;
        custom.c = 16;
        RsqpSolver solver(qp, settings, custom);
        cycles_16 = solver.solve().machineStats.totalCycles;
    }
    {
        CustomizeSettings custom;
        custom.c = 64;
        RsqpSolver solver(qp, settings, custom);
        cycles_64 = solver.solve().machineStats.totalCycles;
    }
    EXPECT_LT(cycles_64, cycles_16);
}


TEST(RsqpSolver, Fp32DatapathSolvesAtDefaultTolerance)
{
    // The physical MAC trees compute in FP32; with the default 1e-3
    // tolerances (and a PCG floor above single-precision noise) the
    // accelerator still converges and agrees with FP64 to ~1e-3.
    const QpProblem qp = generateProblem(Domain::Portfolio, 40, 33);
    OsqpSettings settings = settingsFor();
    settings.pcg.epsRel = 1e-6;

    CustomizeSettings cfg64;
    cfg64.c = 32;
    RsqpSolver fp64(qp, settings, cfg64);
    const OsqpResult r64 = fp64.solve();

    CustomizeSettings cfg32;
    cfg32.c = 32;
    cfg32.fp32Datapath = true;
    RsqpSolver fp32(qp, settings, cfg32);
    const OsqpResult r32 = fp32.solve();

    ASSERT_EQ(r64.info.status, SolveStatus::Solved);
    ASSERT_EQ(r32.info.status, SolveStatus::Solved);
    EXPECT_NEAR(r32.info.objective, r64.info.objective,
                1e-2 * (1.0 + std::abs(r64.info.objective)));
    EXPECT_LT(test::maxAbsDiff(r32.x, r64.x), 1e-2);
}

/**
 * The device has no watchdog: on an indefinite P that passes
 * validation its ADMM run overflows. The result is a typed
 * NumericalError with finite (zero) iterates, never a NaN vector.
 */
TEST(RsqpSolver, DivergingRunEndsTypedWithFiniteIterates)
{
    const QpProblem qp = test::indefiniteQp(30, 1);
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, OsqpSettings{}, custom);
    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::NumericalError);
    EXPECT_EQ(result.info.iterations, 150);
    EXPECT_FALSE(hasNonFinite(result.x));
    EXPECT_FALSE(hasNonFinite(result.y));
    EXPECT_FALSE(hasNonFinite(result.z));
    EXPECT_TRUE(std::isfinite(result.info.objective));
}

TEST(RsqpSolver, WarmStartSizeMismatchIsNonFatal)
{
    const QpProblem qp = generateProblem(Domain::Control, 25, 31);
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, settingsFor(), custom);

    Vector wrongX(static_cast<std::size_t>(qp.numVariables() + 1), 0.0);
    Vector y(static_cast<std::size_t>(qp.numConstraints()), 0.0);
    EXPECT_FALSE(solver.warmStart(wrongX, y));
    Vector x(static_cast<std::size_t>(qp.numVariables()), 0.0);
    EXPECT_TRUE(solver.warmStart(x, y));

    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::Solved);
}

TEST(ThreadedMachine, SolveDeterministicAcrossNumThreads)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 40, 27);

    auto run = [&](Index threads) {
        CustomizeSettings custom;
        custom.c = 32;
        custom.execution.numThreads = threads;
        RsqpSolver solver(qp, settingsFor(), custom);
        return solver.solve();
    };

    const OsqpResult serial = run(1);
    ASSERT_EQ(serial.info.status, SolveStatus::Solved);
    for (Index threads : {2, 8}) {
        const OsqpResult threaded = run(threads);
        EXPECT_EQ(threaded.info.iterations, serial.info.iterations);
        EXPECT_EQ(threaded.machineStats.totalCycles,
                  serial.machineStats.totalCycles);
        ASSERT_EQ(threaded.x, serial.x) << "threads " << threads;
        ASSERT_EQ(threaded.y, serial.y);
        ASSERT_EQ(threaded.z, serial.z);
    }
}

} // namespace
} // namespace rsqp
