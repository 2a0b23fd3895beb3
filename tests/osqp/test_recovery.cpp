/**
 * @file
 * Recovery-layer tests: divergence watchdog verdicts, iterate
 * checkpointing, recovery bookkeeping, wall-clock time limits, and the
 * recovery paths on a real input that needs them — an indefinite P
 * that passes validation (test::indefiniteQp). There PCG breaks down
 * and the LDL' fallback solves the step, and ADMM and PDHG diverge,
 * roll back once and end in a typed NumericalError with finite
 * iterates.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "backends/qp_backend.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/recovery.hpp"
#include "osqp/solver.hpp"
#include "problems/suite.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

constexpr Real kNan = std::numeric_limits<Real>::quiet_NaN();

// --- DivergenceWatchdog ---------------------------------------------

TEST(DivergenceWatchdog, ImprovingResidualsAreOk)
{
    DivergenceWatchdog watchdog;
    Real res = 1.0;
    EXPECT_EQ(watchdog.observe(res, res),
              DivergenceWatchdog::Verdict::Baseline);
    for (int i = 0; i < 50; ++i) {
        res *= 0.5;
        EXPECT_EQ(watchdog.observe(res, res),
                  DivergenceWatchdog::Verdict::Ok);
    }
    EXPECT_LT(watchdog.bestScore(), 1e-10);
}

TEST(DivergenceWatchdog, BlowupIsDiverged)
{
    DivergenceWatchdog watchdog;
    ASSERT_EQ(watchdog.observe(1.0, 1.0),
              DivergenceWatchdog::Verdict::Baseline);
    // 1e9 is past kDivergenceFactor (1e6) times the best score.
    EXPECT_EQ(watchdog.observe(1e9, 1e9),
              DivergenceWatchdog::Verdict::Diverged);
}

TEST(DivergenceWatchdog, NonFiniteIsDiverged)
{
    DivergenceWatchdog watchdog;
    ASSERT_EQ(watchdog.observe(1.0, 1.0),
              DivergenceWatchdog::Verdict::Baseline);
    EXPECT_EQ(watchdog.observe(kNan, 0.5),
              DivergenceWatchdog::Verdict::Diverged);
    EXPECT_EQ(
        watchdog.observe(std::numeric_limits<Real>::infinity(), 0.5),
        DivergenceWatchdog::Verdict::Diverged);
}

TEST(DivergenceWatchdog, StallAfterConfiguredChecks)
{
    DivergenceWatchdog watchdog;
    ASSERT_EQ(watchdog.observe(1.0, 1.0),
              DivergenceWatchdog::Verdict::Baseline);
    // Flat residuals: no improvement, no blowup.
    DivergenceWatchdog::Verdict verdict =
        DivergenceWatchdog::Verdict::Ok;
    Index checks = 0;
    while (verdict == DivergenceWatchdog::Verdict::Ok && checks < 100) {
        verdict = watchdog.observe(1.0, 1.0);
        ++checks;
    }
    EXPECT_EQ(verdict, DivergenceWatchdog::Verdict::Stalled);
    EXPECT_EQ(checks, kStallChecks);
    EXPECT_EQ(kStallChecks, 40);
    // After a stall the counter restarts; the next flat check is Ok.
    EXPECT_EQ(watchdog.observe(1.0, 1.0),
              DivergenceWatchdog::Verdict::Ok);
}

TEST(DivergenceWatchdog, ResetForgetsHistory)
{
    DivergenceWatchdog watchdog;
    ASSERT_EQ(watchdog.observe(1e-8, 1e-8),
              DivergenceWatchdog::Verdict::Baseline);
    watchdog.reset();
    // 1.0 would be a catastrophic blowup vs. best 1e-8 without reset
    // (factor 1e8 > kDivergenceFactor = 1e6).
    EXPECT_EQ(watchdog.observe(1.0, 1.0),
              DivergenceWatchdog::Verdict::Baseline);
}

TEST(DivergenceWatchdog, ScoresAboveTheBoundSentinelAreJudged)
{
    // kInf (1e30) is the bound sentinel, not a residual ceiling: a run
    // already past it at its first check is still judged afterwards.
    DivergenceWatchdog watchdog;
    ASSERT_EQ(watchdog.observe(2e36, 5e33),
              DivergenceWatchdog::Verdict::Baseline);
    EXPECT_EQ(watchdog.bestScore(), 2e36 + 5e33);
    EXPECT_EQ(watchdog.observe(5e54, 1e52),
              DivergenceWatchdog::Verdict::Diverged);
}

// --- IterateCheckpoint ----------------------------------------------

TEST(IterateCheckpoint, CaptureAndRestore)
{
    IterateCheckpoint checkpoint;
    EXPECT_FALSE(checkpoint.valid());

    const Vector x0 = {1.0, 2.0}, y0 = {3.0}, z0 = {4.0};
    checkpoint.capture(x0, y0, z0, 42);
    EXPECT_TRUE(checkpoint.valid());
    EXPECT_EQ(checkpoint.iteration(), 42);

    Vector x = {kNan, kNan}, y = {kNan}, z = {kNan};
    checkpoint.restore(x, y, z);
    EXPECT_EQ(x, x0);
    EXPECT_EQ(y, y0);
    EXPECT_EQ(z, z0);
}

// --- RecoveryReport -------------------------------------------------

TEST(RecoveryReport, RecordsEventsInOrder)
{
    RecoveryReport report;
    EXPECT_TRUE(report.empty());
    report.record(RecoveryAction::PcgDirectFallback, 10, "breakdown");
    report.record(RecoveryAction::CheckpointRestore, 20);
    ASSERT_EQ(report.events.size(), 2u);
    EXPECT_EQ(report.events[0].action,
              RecoveryAction::PcgDirectFallback);
    EXPECT_EQ(report.events[0].iteration, 10);
    EXPECT_EQ(report.events[1].iteration, 20);
    EXPECT_FALSE(report.empty());
}

// --- Wall-clock time limit ------------------------------------------

TEST(TimeLimit, ExpiresWithTypedStatusAndFiniteIterates)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 60, 5);
    OsqpSettings settings;
    settings.timeLimit = 1e-9;  // expires at the first iteration check
    settings.maxIter = 200000;
    const OsqpResult result = OsqpSolver(qp, settings).solve();
    EXPECT_EQ(result.info.status, SolveStatus::TimeLimitReached);
    EXPECT_FALSE(hasNonFinite(result.x));
    EXPECT_FALSE(hasNonFinite(result.y));
    EXPECT_FALSE(hasNonFinite(result.z));
}

TEST(TimeLimit, GenerousBudgetDoesNotTrigger)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 30, 5);
    OsqpSettings settings;
    settings.timeLimit = 3600.0;
    const OsqpResult result = OsqpSolver(qp, settings).solve();
    EXPECT_EQ(result.info.status, SolveStatus::Solved);
}

// --- Recovery on an indefinite P ------------------------------------

void
expectFinite(const OsqpResult& result)
{
    EXPECT_FALSE(hasNonFinite(result.x));
    EXPECT_FALSE(hasNonFinite(result.y));
    EXPECT_FALSE(hasNonFinite(result.z));
}

/**
 * PCG meets p'Kp <= 0 on the indefinite KKT system; the LDL' fallback
 * solves each such step exactly, every one is on record, and the solve
 * converges. A fresh solver repeats it bit for bit.
 */
TEST(PcgFallback, IndefiniteStepsAreSolvedByLdl)
{
    const QpProblem qp = test::indefiniteQp(4, 1);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;

    const OsqpResult a = OsqpSolver(qp, settings).solve();
    EXPECT_EQ(a.info.status, SolveStatus::Solved);
    expectFinite(a);
    EXPECT_EQ(a.info.recovery.pcgFallbacks, 8);
    ASSERT_EQ(a.info.recovery.events.size(), 8u);
    for (const RecoveryEvent& event : a.info.recovery.events) {
        EXPECT_EQ(event.action, RecoveryAction::PcgDirectFallback);
        EXPECT_EQ(event.detail, "indefinite-direction");
    }
    EXPECT_EQ(a.info.recovery.checkpointRestores, 0);

    const OsqpResult b = OsqpSolver(qp, settings).solve();
    EXPECT_EQ(b.info.status, a.info.status);
    EXPECT_EQ(b.info.iterations, a.info.iterations);
    EXPECT_EQ(b.info.recovery.pcgFallbacks, a.info.recovery.pcgFallbacks);
    EXPECT_EQ(b.x, a.x);
    EXPECT_EQ(b.y, a.y);
    EXPECT_EQ(b.z, a.z);
}

/**
 * On a larger indefinite P the residuals blow up on every host engine:
 * the watchdog rolls back to the last-good checkpoint once, boosts
 * sigma (ADMM) or halves the steps (PDHG), and when the run diverges
 * again it ends in NumericalError with the restored finite iterates.
 */
TEST(Watchdog, DivergenceEndsTypedAfterOneRecovery)
{
    const QpProblem qp = test::indefiniteQp(10, 2);
    struct Engine
    {
        const char* name;
        KktBackend backend;
        BackendKind kind;
    };
    for (const Engine& engine :
         {Engine{"admm-ldl", KktBackend::DirectLdl, BackendKind::Admm},
          Engine{"admm-pcg", KktBackend::IndirectPcg, BackendKind::Admm},
          Engine{"pdhg", KktBackend::DirectLdl, BackendKind::Pdhg}}) {
        SCOPED_TRACE(engine.name);
        OsqpSettings settings;
        settings.backend = engine.backend;
        settings.firstOrder.method = engine.kind;
        const OsqpResult result = makeBackend(qp, settings)->solve();
        EXPECT_EQ(result.info.status, SolveStatus::NumericalError);
        expectFinite(result);
        EXPECT_EQ(result.info.recovery.checkpointRestores, 1);
        EXPECT_EQ(result.info.recovery.sigmaBoosts, 1);
    }
}

/**
 * indefiniteQp(30, seed) is blown up by its first check (seed 1: 3.9e17
 * at iteration 25) and passes the 1e30 bound sentinel soon after. The
 * watchdog judges every later check against the first, and never
 * vouches for the first as a checkpoint: both ADMM backends end each
 * solve, fresh or repeated from the last one's iterates, in
 * NumericalError with finite iterates and a finite objective.
 */
TEST(Watchdog, BlownUpFirstCheckEndsTypedWithFiniteObjective)
{
    for (const KktBackend backend :
         {KktBackend::DirectLdl, KktBackend::IndirectPcg}) {
        for (const std::uint64_t seed : {1, 2}) {
            SCOPED_TRACE(::testing::Message()
                         << (backend == KktBackend::DirectLdl ? "ldl"
                                                              : "pcg")
                         << " seed " << seed);
            OsqpSettings settings;
            settings.backend = backend;
            OsqpSolver solver(test::indefiniteQp(30, seed), settings);
            for (int solve = 0; solve < 5; ++solve) {
                const OsqpResult result = solver.solve();
                EXPECT_EQ(result.info.status, SolveStatus::NumericalError);
                expectFinite(result);
                EXPECT_TRUE(std::isfinite(result.info.objective));
                EXPECT_EQ(result.info.recovery.checkpointRestores, 1);
            }
        }
    }
}

TEST(Watchdog, CleanSolveRecordsNoRecovery)
{
    const QpProblem qp = generateProblem(Domain::Lasso, 30, 2);
    const OsqpResult result = OsqpSolver(qp, OsqpSettings{}).solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    EXPECT_TRUE(result.info.recovery.empty());
    EXPECT_EQ(result.info.recovery.pcgFallbacks, 0);
    EXPECT_EQ(result.info.recovery.checkpointRestores, 0);
}

} // namespace
} // namespace rsqp
