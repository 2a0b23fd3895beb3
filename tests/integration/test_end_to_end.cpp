/**
 * @file
 * Cross-stack integration tests: for a sample of benchmark problems,
 * run all three backends (CPU direct, CPU indirect, simulated RSQP)
 * and check they agree on the solution; verify the headline paper
 * effects end to end (customization speedup, KKT-time dominance).
 */

#include <gtest/gtest.h>

#include "core/rsqp.hpp"
#include "linalg/vector_ops.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

TEST(EndToEnd, ThreeBackendsAgreeOnSolution)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 60, 55);

    OsqpSettings direct_settings;
    direct_settings.backend = KktBackend::DirectLdl;
    OsqpSolver direct(qp, direct_settings);
    const OsqpResult rd = direct.solve();

    OsqpSettings indirect_settings;
    indirect_settings.backend = KktBackend::IndirectPcg;
    OsqpSolver indirect(qp, indirect_settings);
    const OsqpResult ri = indirect.solve();

    CustomizeSettings custom;
    custom.c = 64;
    RsqpSolver device(qp, indirect_settings, custom);
    const OsqpResult ra = device.solve();

    ASSERT_EQ(rd.info.status, SolveStatus::Solved);
    ASSERT_EQ(ri.info.status, SolveStatus::Solved);
    ASSERT_EQ(ra.info.status, SolveStatus::Solved);

    const Real scale = 1.0 + std::abs(rd.info.objective);
    EXPECT_NEAR(rd.info.objective, ri.info.objective, 2e-2 * scale);
    EXPECT_NEAR(rd.info.objective, ra.info.objective, 2e-2 * scale);
}

TEST(EndToEnd, KktSolveDominatesCpuTime)
{
    // The Fig. 8 claim: the KKT solve is >= ~90 % of solver time for
    // the indirect CPU backend on a non-trivial problem.
    const QpProblem qp = generateProblem(Domain::Lasso, 150, 57);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    OsqpSolver solver(qp, settings);
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    ASSERT_GT(result.info.solveTime, 0.0);
    EXPECT_GT(result.info.kktSolveTime / result.info.solveTime, 0.7);
}

TEST(EndToEnd, CustomizationSpeedupWithinPaperBand)
{
    // Fig. 10: customization buys 1.4x-7x end-to-end on the
    // structured domains. Check one mid-size instance lands in a
    // generous version of that band (> 1.2x).
    const QpProblem qp = generateProblem(Domain::Svm, 60, 59);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;

    CustomizeSettings base_cfg;
    base_cfg.c = 64;
    base_cfg.customizeStructures = false;
    base_cfg.compressCvb = false;
    RsqpSolver baseline(qp, settings, base_cfg);
    const OsqpResult rb = baseline.solve();

    CustomizeSettings custom_cfg;
    custom_cfg.c = 64;
    RsqpSolver customized(qp, settings, custom_cfg);
    const OsqpResult rc = customized.solve();

    ASSERT_EQ(rb.info.status, SolveStatus::Solved);
    ASSERT_EQ(rc.info.status, SolveStatus::Solved);
    const Real speedup = rb.deviceSeconds / rc.deviceSeconds;
    EXPECT_GT(speedup, 1.2);
    EXPECT_LT(speedup, 20.0);
}

TEST(EndToEnd, GpuModelSlowerThanCpuOnTinyProblem)
{
    // The cuOSQP effect: kernel-launch overhead makes the GPU lose on
    // small problems.
    const QpProblem qp = generateProblem(Domain::Control, 4, 61);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    OsqpSolver cpu(qp, settings);
    Timer timer;
    const OsqpResult result = cpu.solve();
    const double cpu_seconds = timer.seconds();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);

    const GpuSolveEstimate gpu =
        estimateGpuSolve(qp, result.info, settings);
    EXPECT_GT(gpu.totalSeconds(), cpu_seconds);
}

TEST(EndToEnd, FpgaPowerEfficiencyBeatsGpu)
{
    // Fig. 13: instances/s/W strongly favors the FPGA.
    const QpProblem qp = generateProblem(Domain::Portfolio, 80, 63);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    OsqpSolver cpu(qp, settings);
    const OsqpResult cpu_result = cpu.solve();
    ASSERT_EQ(cpu_result.info.status, SolveStatus::Solved);

    CustomizeSettings custom;
    custom.c = 64;
    RsqpSolver device(qp, settings, custom);
    const OsqpResult acc = device.solve();
    ASSERT_EQ(acc.info.status, SolveStatus::Solved);

    const GpuSolveEstimate gpu =
        estimateGpuSolve(qp, cpu_result.info, settings);
    const Real fpga_eff = powerEfficiency(
        acc.deviceSeconds, fpgaPowerWatts(device.config()));
    const Real gpu_eff =
        powerEfficiency(gpu.totalSeconds(), gpu.watts);
    EXPECT_GT(fpga_eff, gpu_eff);
}

TEST(EndToEnd, MpcReceedingHorizonLoop)
{
    // A realistic deployment: solve a short receding-horizon control
    // sequence on one generated architecture with warm starts.
    const QpProblem qp = generateProblem(Domain::Control, 6, 65);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, settings, custom);

    OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    Count total_cycles = result.machineStats.totalCycles;
    for (int step = 0; step < 3; ++step) {
        // Perturb the linear cost (tracking target changes).
        Vector q = qp.q;
        for (std::size_t j = 0; j < q.size(); ++j)
            q[j] += 0.01 * static_cast<Real>(step);
        solver.updateLinearCost(q);
        solver.warmStart(result.x, result.y);
        result = solver.solve();
        ASSERT_EQ(result.info.status, SolveStatus::Solved);
        // Warm-started re-solves are cheaper than the cold solve.
        EXPECT_LE(result.machineStats.totalCycles, total_cycles);
    }
}

} // namespace
} // namespace rsqp
