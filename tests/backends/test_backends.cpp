/**
 * @file
 * Backend subsystem tests: cross-backend solution equivalence, the
 * factory's bitwise fidelity to the raw solver, Auto as a setup-time
 * pick of one engine, PDHG determinism across thread counts, settings
 * validation (one verdict from every engine, the device included), and
 * per-backend telemetry labels/counters.
 */

#include <gtest/gtest.h>

#include "backends/backend_selector.hpp"
#include "backends/pdhg_solver.hpp"
#include "common/thread_pool.hpp"
#include "core/rsqp_solver.hpp"
#include "osqp/solver.hpp"
#include "osqp/validate.hpp"
#include "problems/suite.hpp"
#include "service/session.hpp"
#include "telemetry/metrics.hpp"

namespace rsqp
{
namespace
{

OsqpSettings
baseSettings()
{
    OsqpSettings settings;
    settings.maxIter = 20000;
    settings.adaptiveRho = false;
    return settings;
}

OsqpResult
solveWith(const QpProblem& problem, OsqpSettings settings,
          BackendKind kind)
{
    settings.firstOrder.method = kind;
    std::unique_ptr<QpBackend> backend =
        makeBackend(problem, std::move(settings));
    return backend->solve();
}

/** Bitwise equality of two results: status, iterations, x and y. */
void
expectBitwiseEqual(const OsqpResult& got, const OsqpResult& expect)
{
    ASSERT_EQ(got.info.status, expect.info.status);
    EXPECT_EQ(got.info.iterations, expect.info.iterations);
    EXPECT_EQ(got.info.objective, expect.info.objective);
    ASSERT_EQ(got.x.size(), expect.x.size());
    ASSERT_EQ(got.y.size(), expect.y.size());
    for (std::size_t i = 0; i < expect.x.size(); ++i)
        EXPECT_EQ(got.x[i], expect.x[i]) << "x[" << i << "]";
    for (std::size_t i = 0; i < expect.y.size(); ++i)
        EXPECT_EQ(got.y[i], expect.y[i]) << "y[" << i << "]";
}

TEST(Backends, FactoryReturnsRequestedKind)
{
    // Auto is resolved at setup: the factory hands back the engine the
    // selector picks, at a size that picks ADMM and one that picks PDHG.
    const struct
    {
        Index size;
        BackendKind pick;
    } cases[] = {{8, BackendKind::Admm}, {40, BackendKind::Pdhg}};
    for (const auto& c : cases) {
        const QpProblem qp = generateProblem(Domain::Control, c.size, 3);
        for (BackendKind kind :
             {BackendKind::Admm, BackendKind::Pdhg, BackendKind::Auto}) {
            OsqpSettings settings = baseSettings();
            settings.firstOrder.method = kind;
            std::unique_ptr<QpBackend> backend =
                makeBackend(qp, std::move(settings));
            ASSERT_NE(backend, nullptr);
            EXPECT_EQ(backend->kind(),
                      kind == BackendKind::Auto ? c.pick : kind)
                << "size " << c.size;
            const OsqpResult result = backend->solve();
            EXPECT_EQ(result.x.size(),
                      static_cast<std::size_t>(qp.numVariables()));
            EXPECT_EQ(result.y.size(),
                      static_cast<std::size_t>(qp.numConstraints()));
        }
    }
}

TEST(Backends, AdmmWrapperMatchesRawSolverBitwise)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 60, 11);
    const OsqpSettings settings = baseSettings();

    OsqpSolver raw(qp, settings);
    const OsqpResult expect = raw.solve();
    const OsqpResult got = solveWith(qp, settings, BackendKind::Admm);
    expectBitwiseEqual(got, expect);
}

TEST(Backends, CrossBackendSolutionEquivalence)
{
    const struct
    {
        Domain domain;
        Index size;
        std::uint64_t seed;
    } cases[] = {
        {Domain::Control, 12, 3},
        {Domain::Portfolio, 80, 9},
        {Domain::Eqqp, 60, 1},
        {Domain::Lasso, 30, 2},
    };
    for (const auto& c : cases) {
        const QpProblem qp =
            generateProblem(c.domain, c.size, c.seed);
        OsqpSettings settings = baseSettings();
        settings.epsAbs = 1e-6;
        settings.epsRel = 1e-6;

        const OsqpResult admm =
            solveWith(qp, settings, BackendKind::Admm);
        const OsqpResult pdhg =
            solveWith(qp, settings, BackendKind::Pdhg);

        ASSERT_EQ(admm.info.status, SolveStatus::Solved)
            << toString(c.domain);
        ASSERT_EQ(pdhg.info.status, SolveStatus::Solved)
            << toString(c.domain);

        const Real scale = 1.0 + std::abs(admm.info.objective);
        EXPECT_LT(
            std::abs(pdhg.info.objective - admm.info.objective) /
                scale,
            1e-3)
            << toString(c.domain);
    }
}

TEST(Backends, PdhgDeterministicAcrossThreadCounts)
{
    const QpProblem qp = generateProblem(Domain::Control, 20, 17);
    OsqpSettings settings = baseSettings();

    OsqpResult reference;
    {
        NumThreadsScope scope(1);
        reference = solveWith(qp, settings, BackendKind::Pdhg);
    }
    ASSERT_EQ(reference.info.status, SolveStatus::Solved);

    for (Index threads : {2, 4, 8}) {
        NumThreadsScope scope(threads);
        const OsqpResult run =
            solveWith(qp, settings, BackendKind::Pdhg);
        ASSERT_EQ(run.info.status, reference.info.status)
            << threads << " threads";
        EXPECT_EQ(run.info.iterations, reference.info.iterations)
            << threads << " threads";
        EXPECT_EQ(run.info.telemetry.restarts,
                  reference.info.telemetry.restarts)
            << threads << " threads";
        ASSERT_EQ(run.x.size(), reference.x.size());
        for (std::size_t i = 0; i < reference.x.size(); ++i)
            ASSERT_EQ(run.x[i], reference.x[i])
                << threads << " threads, x[" << i << "]";
        for (std::size_t i = 0; i < reference.y.size(); ++i)
            ASSERT_EQ(run.y[i], reference.y[i])
                << threads << " threads, y[" << i << "]";
    }
}

TEST(Backends, PdhgRestartDeterminismEveryMode)
{
    const QpProblem qp = generateProblem(Domain::Svm, 30, 23);
    for (PdhgRestart mode :
         {PdhgRestart::None, PdhgRestart::FixedFrequency,
          PdhgRestart::Adaptive, PdhgRestart::Halpern}) {
        OsqpSettings settings = baseSettings();
        settings.firstOrder.pdhg.restart = mode;

        OsqpResult first, second;
        {
            NumThreadsScope scope(1);
            first = solveWith(qp, settings, BackendKind::Pdhg);
        }
        {
            NumThreadsScope scope(4);
            second = solveWith(qp, settings, BackendKind::Pdhg);
        }
        ASSERT_EQ(first.info.status, second.info.status)
            << pdhgRestartName(mode);
        EXPECT_EQ(first.info.iterations, second.info.iterations)
            << pdhgRestartName(mode);
        for (std::size_t i = 0; i < first.x.size(); ++i)
            ASSERT_EQ(first.x[i], second.x[i]) << pdhgRestartName(mode);
    }
}

TEST(Backends, AutoMatchesSingleEngineWhenNoSwitchNeeded)
{
    // Auto is the selector's engine, picked once at setup: its solve
    // is bitwise the standalone engine's, for an ADMM pick (lasso)
    // and for a PDHG pick (control at scale, 350 iterations here).
    const struct
    {
        Domain domain;
        Index size;
        BackendKind pick;
    } cases[] = {
        {Domain::Lasso, 40, BackendKind::Admm},
        {Domain::Control, 40, BackendKind::Pdhg},
    };
    for (const auto& c : cases) {
        const QpProblem qp = generateProblem(c.domain, c.size, 13);
        ASSERT_EQ(chooseBackend(qp), c.pick) << toString(c.domain);
        const OsqpSettings settings = baseSettings();
        const OsqpResult engine = solveWith(qp, settings, c.pick);
        const OsqpResult auto_run =
            solveWith(qp, settings, BackendKind::Auto);
        ASSERT_EQ(auto_run.info.status, SolveStatus::Solved)
            << toString(c.domain);
        EXPECT_EQ(auto_run.info.telemetry.backend,
                  backendKindName(c.pick));
        expectBitwiseEqual(auto_run, engine);
    }
}

TEST(Backends, TelemetryCarriesBackendLabelAndRestarts)
{
    const QpProblem qp = generateProblem(Domain::Control, 12, 7);
    OsqpSettings settings = baseSettings();

    const OsqpResult admm = solveWith(qp, settings, BackendKind::Admm);
    EXPECT_EQ(admm.info.telemetry.backend, "admm");
    EXPECT_EQ(admm.info.telemetry.restarts, 0);

    const OsqpResult pdhg = solveWith(qp, settings, BackendKind::Pdhg);
    EXPECT_EQ(pdhg.info.telemetry.backend, "pdhg");
    EXPECT_GE(pdhg.info.telemetry.restarts, 1);
}

TEST(Backends, MetricsCountPerBackendSolves)
{
    using telemetry::MetricsRegistry;
    const QpProblem qp = generateProblem(Domain::Eqqp, 30, 3);
    OsqpSettings settings = baseSettings();

    const auto solves = [](const char* backend) {
        return MetricsRegistry::global().snapshot().counterValue(
            std::string("rsqp_backend_solves_total{backend=\"") +
            backend + "\"}");
    };
    const std::uint64_t admm_before = solves("admm");
    const std::uint64_t pdhg_before = solves("pdhg");

    (void)solveWith(qp, settings, BackendKind::Admm);
    (void)solveWith(qp, settings, BackendKind::Pdhg);

    EXPECT_EQ(solves("admm"), admm_before + 1);
    EXPECT_EQ(solves("pdhg"), pdhg_before + 1);

    // OsqpSolver is the ADMM engine itself: a raw solve counts too.
    OsqpSolver raw(qp, settings);
    (void)raw.solve();
    EXPECT_EQ(solves("admm"), admm_before + 2);
}

TEST(Backends, ParametricUpdatesMatchRebuild)
{
    // The update path keeps the setup-time Ruiz scaling while a
    // rebuild rescales from the new data, so the trajectories differ;
    // at a tight tolerance both must land on the same optimum.
    const QpProblem qp = generateProblem(Domain::Portfolio, 50, 19);
    OsqpSettings settings = baseSettings();
    settings.epsAbs = 1e-7;
    settings.epsRel = 1e-7;

    QpProblem shifted = qp;
    for (Real& v : shifted.q)
        v *= 1.25;

    settings.firstOrder.method = BackendKind::Pdhg;
    std::unique_ptr<QpBackend> updated = makeBackend(qp, settings);
    updated->updateLinearCost(shifted.q);
    const OsqpResult via_update = updated->solve();

    std::unique_ptr<QpBackend> fresh = makeBackend(shifted, settings);
    const OsqpResult via_rebuild = fresh->solve();

    ASSERT_EQ(via_update.info.status, SolveStatus::Solved);
    ASSERT_EQ(via_rebuild.info.status, SolveStatus::Solved);
    const Real scale = 1.0 + std::abs(via_rebuild.info.objective);
    EXPECT_LT(std::abs(via_update.info.objective -
                       via_rebuild.info.objective) /
                  scale,
              1e-5);
}

TEST(BackendValidation, AdaptiveRhoToleranceMustExceedOne)
{
    OsqpSettings settings;
    settings.adaptiveRhoTolerance = 1.0;
    const ValidationReport report = validateSettings(settings);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(ValidationCode::InvalidSetting));

    settings.adaptiveRhoTolerance = 5.0;
    EXPECT_TRUE(validateSettings(settings).ok());
}

TEST(BackendValidation, PdhgKnobsGateTheSolveWithoutThrowing)
{
    const QpProblem qp = generateProblem(Domain::Control, 8, 3);
    OsqpSettings settings = baseSettings();
    settings.firstOrder.pdhg.restartBeta = 1.5;  // must be in (0, 1)

    PdhgSolver solver(qp, settings);
    EXPECT_FALSE(solver.validation().ok());
    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::InvalidProblem);
    EXPECT_FALSE(result.validation.ok());
}

TEST(BackendValidation, SettingsVerdictIsTheSameForEveryEngine)
{
    // A bad setting is a settings error whichever engine runs: the
    // explicit engines, Auto at a size that picks ADMM and at one that
    // picks PDHG, a raw OsqpSolver, the device's RsqpSolver and a
    // Device session all refuse the solve. The device must refuse
    // checkInterval = 0 before its maxIter rounding divides by it.
    const QpProblem small = generateProblem(Domain::Control, 4, 1);
    const QpProblem large = generateProblem(Domain::Control, 40, 1);
    ASSERT_EQ(chooseBackend(small), BackendKind::Admm);
    ASSERT_EQ(chooseBackend(large), BackendKind::Pdhg);

    const struct
    {
        const char* name;
        void (*spoil)(OsqpSettings&);
    } cases[] = {
        {"restartBeta = 1.5",  // must be in (0, 1)
         [](OsqpSettings& s) { s.firstOrder.pdhg.restartBeta = 1.5; }},
        {"checkInterval = 0", [](OsqpSettings& s) { s.checkInterval = 0; }},
        {"rho = -1", [](OsqpSettings& s) { s.rho = -1.0; }},
    };
    const struct
    {
        const QpProblem* qp;
        BackendKind kind;
    } runs[] = {
        {&small, BackendKind::Admm},
        {&small, BackendKind::Pdhg},
        {&small, BackendKind::Auto},
        {&large, BackendKind::Auto},
    };
    const auto expectRefused = [](SolveStatus status,
                                  const ValidationReport& report,
                                  const char* engine) {
        EXPECT_EQ(status, SolveStatus::InvalidProblem) << engine;
        EXPECT_TRUE(report.has(ValidationCode::InvalidSetting)) << engine;
    };

    for (const auto& bad : cases) {
        SCOPED_TRACE(bad.name);
        OsqpSettings settings = baseSettings();
        bad.spoil(settings);
        EXPECT_FALSE(validateSettings(settings).ok());

        for (const auto& run : runs) {
            SCOPED_TRACE(run.qp->numVariables());
            const OsqpResult result =
                solveWith(*run.qp, settings, run.kind);
            expectRefused(result.info.status, result.validation,
                          backendKindName(run.kind));
        }

        OsqpSolver raw(small, settings);
        const OsqpResult raw_result = raw.solve();
        expectRefused(raw_result.info.status, raw_result.validation,
                      "OsqpSolver");

        CustomizeSettings custom;
        custom.c = 16;
        RsqpSolver device(small, settings, custom);
        const OsqpResult device_result = device.solve();
        expectRefused(device_result.info.status, device_result.validation,
                      "RsqpSolver");

        SessionConfig config;
        config.osqp = settings;
        config.custom = custom;
        SolverSession session(config);
        const SessionResult session_result = session.solve(small);
        expectRefused(session_result.status, session_result.validation,
                      "Device session");
    }
}

TEST(BackendValidation, InvalidSolverSettingsStayNonThrowing)
{
    const QpProblem qp = generateProblem(Domain::Control, 8, 3);
    OsqpSettings settings = baseSettings();
    settings.adaptiveRhoTolerance = 0.5;

    OsqpSolver solver(qp, settings);
    EXPECT_FALSE(solver.validation().ok());
    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::InvalidProblem);
}

} // namespace
} // namespace rsqp
