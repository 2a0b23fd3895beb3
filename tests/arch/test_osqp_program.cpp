/**
 * @file
 * Device-program tests: the lowered OSQP program must reproduce the
 * reference host solver (IndirectPcg backend) — same status, matching
 * solutions, and near-identical iteration trajectories — across
 * domains and architecture variants.
 */

#include <gtest/gtest.h>

#include "arch/osqp_program.hpp"
#include "core/customization.hpp"
#include "core/rsqp_solver.hpp"
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
    settings.epsAbs = 1e-4;
    settings.epsRel = 1e-4;
    return settings;
}

TEST(OsqpProgram, MatchesReferenceSolverTrajectory)
{
    // With a tight, fixed PCG tolerance the subproblem solutions are
    // effectively exact on both sides, so the device ADMM trajectory
    // tracks the host reference step for step; the only differences
    // are FP summation orders (MAC-tree packs vs CSC columns).
    const QpProblem qp = generateProblem(Domain::Portfolio, 40, 42);
    OsqpSettings settings = settingsFor();
    settings.pcg.adaptiveTolerance = false;
    settings.pcg.epsRel = 1e-12;

    OsqpSolver reference(qp, settings);
    const OsqpResult ref = reference.solve();

    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver device(qp, settings, custom);
    const OsqpResult acc = device.solve();

    ASSERT_EQ(ref.info.status, SolveStatus::Solved);
    ASSERT_EQ(acc.info.status, SolveStatus::Solved);
    EXPECT_EQ(acc.info.iterations, ref.info.iterations);
    EXPECT_LT(test::maxAbsDiff(acc.x, ref.x), 1e-6);
    EXPECT_LT(test::maxAbsDiff(acc.y, ref.y), 1e-6);
    // PCG totals track within a small FP-rounding margin.
    const Real pcg_gap = std::abs(
        static_cast<Real>(acc.info.pcgIterationsTotal) -
        static_cast<Real>(ref.info.pcgIterationsTotal));
    EXPECT_LE(pcg_gap,
              0.05 * static_cast<Real>(ref.info.pcgIterationsTotal) + 5);
}

TEST(OsqpProgram, ResidualsMatchReference)
{
    const QpProblem qp = generateProblem(Domain::Lasso, 25, 9);
    const OsqpSettings settings = settingsFor();
    OsqpSolver reference(qp, settings);
    const OsqpResult ref = reference.solve();

    CustomizeSettings custom;
    custom.c = 32;
    RsqpSolver device(qp, settings, custom);
    const OsqpResult acc = device.solve();
    ASSERT_EQ(acc.info.status, SolveStatus::Solved);
    EXPECT_NEAR(acc.info.primRes, ref.info.primRes,
                1e-6 + 0.05 * ref.info.primRes);
    EXPECT_NEAR(acc.info.dualRes, ref.info.dualRes,
                1e-6 + 0.05 * ref.info.dualRes);
}

TEST(OsqpProgram, BaselineAndCustomizedAgreeNumerically)
{
    const QpProblem qp = generateProblem(Domain::Svm, 20, 4);
    const OsqpSettings settings = settingsFor();

    CustomizeSettings baseline;
    baseline.c = 16;
    baseline.customizeStructures = false;
    baseline.compressCvb = false;
    RsqpSolver base(qp, settings, baseline);
    const OsqpResult rb = base.solve();

    CustomizeSettings customized;
    customized.c = 16;
    RsqpSolver custom(qp, settings, customized);
    const OsqpResult rc = custom.solve();

    ASSERT_EQ(rb.info.status, SolveStatus::Solved);
    ASSERT_EQ(rc.info.status, SolveStatus::Solved);
    // Same algorithm; the architecture only changes the timing.
    EXPECT_EQ(rb.info.iterations, rc.info.iterations);
    EXPECT_LT(test::maxAbsDiff(rb.x, rc.x), 1e-9);
    // ...and the customized one is faster in cycles.
    EXPECT_LT(rc.machineStats.totalCycles, rb.machineStats.totalCycles);
}

TEST(OsqpProgram, MaxIterStatusReported)
{
    const QpProblem qp = generateProblem(Domain::Huber, 15, 2);
    OsqpSettings settings = settingsFor();
    settings.maxIter = 25;
    settings.epsAbs = 1e-12;
    settings.epsRel = 1e-12;
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver device(qp, settings, custom);
    const OsqpResult result = device.solve();
    EXPECT_EQ(result.info.status, SolveStatus::MaxIterReached);
    EXPECT_EQ(result.info.iterations, 25);
}

TEST(OsqpProgram, RhoUpdatesHappenOnDevice)
{
    // Pick a problem whose residual ratio forces rho adaptation.
    const QpProblem qp = generateProblem(Domain::Control, 8, 3);
    OsqpSettings settings = settingsFor();
    settings.adaptiveRhoInterval = 50;
    OsqpSolver reference(qp, settings);
    const OsqpResult ref = reference.solve();

    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver device(qp, settings, custom);
    const OsqpResult acc = device.solve();
    EXPECT_EQ(acc.info.rhoUpdates, ref.info.rhoUpdates);
    EXPECT_EQ(acc.info.iterations, ref.info.iterations);
}

TEST(OsqpProgram, InstructionMixCoversTable1Classes)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 30, 8);
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver device(qp, settingsFor(), custom);
    const OsqpResult result = device.solve();
    const MachineStats& stats = result.machineStats;
    for (InstrClass cls :
         {InstrClass::Control, InstrClass::Scalar,
          InstrClass::DataTransfer, InstrClass::VectorOp,
          InstrClass::VectorDup, InstrClass::SpMV}) {
        EXPECT_GT(stats.classCounts[static_cast<std::size_t>(cls)], 0)
            << "class " << static_cast<int>(cls);
    }
    EXPECT_GT(stats.spmvPacks, 0);
}

/** Sweep: device == reference across every benchmark domain. */
class DeviceEquivalence : public ::testing::TestWithParam<Domain>
{};

TEST_P(DeviceEquivalence, SolutionMatchesReference)
{
    const Domain domain = GetParam();
    const Index size = domain == Domain::Control ? 6 : 25;
    const QpProblem qp = generateProblem(domain, size, 77);
    const OsqpSettings settings = settingsFor();

    OsqpSolver reference(qp, settings);
    const OsqpResult ref = reference.solve();
    ASSERT_EQ(ref.info.status, SolveStatus::Solved)
        << toString(domain);

    CustomizeSettings custom;
    custom.c = 32;
    RsqpSolver device(qp, settings, custom);
    const OsqpResult acc = device.solve();
    ASSERT_EQ(acc.info.status, SolveStatus::Solved) << toString(domain);
    const Real scale = 1.0 + normInf(ref.x);
    EXPECT_LT(test::maxAbsDiff(acc.x, ref.x), 1e-3 * scale)
        << toString(domain);
}

INSTANTIATE_TEST_SUITE_P(AllDomains, DeviceEquivalence,
                         ::testing::Values(Domain::Control, Domain::Lasso,
                                           Domain::Huber,
                                           Domain::Portfolio, Domain::Svm,
                                           Domain::Eqqp));


TEST(OsqpProgram, ProfileIdentifiesPcgHotLoop)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 40, 15);
    const OsqpSettings settings = settingsFor();

    // Rebuild the device setup by hand so we can enable profiling.
    QpProblem scaled = qp;
    const Scaling scaling = ruizEquilibrate(scaled, 10);
    CustomizeSettings cfg;
    cfg.c = 16;
    const ProblemCustomization custom = customizeProblem(scaled, cfg);
    Machine machine(custom.config);
    OsqpMatrixIds mats;
    mats.p = machine.addMatrix(custom.p.packed, custom.p.plan, "P");
    mats.a = machine.addMatrix(custom.a.packed, custom.a.plan, "A");
    mats.at = machine.addMatrix(custom.at.packed, custom.at.plan, "At");
    mats.atSq = machine.addMatrix(custom.atSq.packed,
                                  custom.atSq.plan, "AtSq");
    OsqpSettings dev_settings = settings;
    const OsqpDeviceProgram prog =
        buildOsqpProgram(machine, mats, scaled, scaling, dev_settings);

    machine.enableProfiling(true);
    machine.run(prog.program);

    // Profile totals match the machine stats.
    Count profile_total = 0;
    for (Count cycles : machine.pcCycles())
        profile_total += cycles;
    const Count rom = custom.config.timings.hbmLatency +
        static_cast<Count>(prog.program.size());
    EXPECT_EQ(profile_total + rom, machine.stats().totalCycles);

    // The hottest instructions live in the PCG inner loop (the K
    // application: SpMV/dup of P/A/At).
    const std::string report = machine.profileReport(prog.program, 6);
    EXPECT_TRUE(report.find("spmv") != std::string::npos ||
                report.find("vdup") != std::string::npos)
        << report;
}

} // namespace
} // namespace rsqp
