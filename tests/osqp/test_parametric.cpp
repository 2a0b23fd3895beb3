/**
 * @file
 * Parametric-update tests: updating q, bounds or matrix values reuses
 * the setup (the structure-reuse model that amortizes RSQP's hardware
 * generation) and produces the same solutions as fresh solvers, on
 * every engine that shares the scaled-problem bookkeeping.
 */

#include <memory>

#include <gtest/gtest.h>

#include "backends/pdhg_solver.hpp"
#include "common/logging.hpp"
#include "core/rsqp_solver.hpp"
#include "osqp/solver.hpp"
#include "problems/generators.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

OsqpSettings
tightSettings()
{
    OsqpSettings settings;
    settings.epsAbs = 1e-6;
    settings.epsRel = 1e-6;
    return settings;
}

/** The engines whose parametric updates these tests pin. */
enum class Engine
{
    AdmmDirect,    ///< OsqpSolver, DirectLdl
    AdmmIndirect,  ///< OsqpSolver, IndirectPcg
    Pdhg,          ///< PdhgSolver
    Device,        ///< RsqpSolver, fp64 datapath
};

constexpr Engine kEngines[] = {Engine::AdmmDirect, Engine::AdmmIndirect,
                               Engine::Pdhg, Engine::Device};

const char*
engineName(Engine engine)
{
    switch (engine) {
      case Engine::AdmmDirect:
        return "admm-direct";
      case Engine::AdmmIndirect:
        return "admm-indirect";
      case Engine::Pdhg:
        return "pdhg";
      case Engine::Device:
        return "device";
    }
    return "?";
}

std::unique_ptr<QpBackend>
makeEngine(Engine engine, const QpProblem& problem, OsqpSettings settings)
{
    switch (engine) {
      case Engine::AdmmDirect:
        return std::make_unique<OsqpSolver>(problem, settings);
      case Engine::AdmmIndirect:
        settings.backend = KktBackend::IndirectPcg;
        return std::make_unique<OsqpSolver>(problem, settings);
      case Engine::Pdhg:
        return std::make_unique<PdhgSolver>(problem, settings);
      case Engine::Device: {
        CustomizeSettings custom;
        custom.c = 16;
        return std::make_unique<RsqpSolver>(problem, settings, custom);
      }
    }
    return nullptr;
}

TEST(Parametric, UpdateLinearCostMatchesFreshSolve)
{
    Rng rng(1);
    QpProblem problem = generatePortfolio(30, rng);
    Vector q2 = problem.q;
    for (Real& v : q2)
        v *= 0.5;
    QpProblem fresh_problem = problem;
    fresh_problem.q = q2;

    for (Engine engine : kEngines) {
        SCOPED_TRACE(engineName(engine));
        std::unique_ptr<QpBackend> solver =
            makeEngine(engine, problem, tightSettings());
        solver->solve();
        solver->updateLinearCost(q2);
        const OsqpResult updated = solver->solve();

        const OsqpResult reference =
            makeEngine(engine, fresh_problem, tightSettings())->solve();

        ASSERT_EQ(updated.info.status, SolveStatus::Solved);
        ASSERT_EQ(reference.info.status, SolveStatus::Solved);
        EXPECT_NEAR(updated.info.objective, reference.info.objective,
                    1e-3 * (1.0 + std::abs(reference.info.objective)));
    }
}

TEST(Parametric, UpdateBoundsMatchesFreshSolve)
{
    Rng rng(2);
    QpProblem problem = generateSvm(20, rng);
    Vector l2 = problem.l;
    Vector u2 = problem.u;
    for (std::size_t i = 0; i < l2.size(); ++i) {
        if (l2[i] > -kInf)
            l2[i] -= 0.25;
        if (u2[i] < kInf)
            u2[i] += 0.25;
    }
    QpProblem fresh_problem = problem;
    fresh_problem.l = l2;
    fresh_problem.u = u2;

    for (Engine engine : kEngines) {
        SCOPED_TRACE(engineName(engine));
        std::unique_ptr<QpBackend> solver =
            makeEngine(engine, problem, tightSettings());
        solver->solve();
        solver->updateBounds(l2, u2);
        const OsqpResult updated = solver->solve();

        const OsqpResult reference =
            makeEngine(engine, fresh_problem, tightSettings())->solve();
        ASSERT_EQ(updated.info.status, SolveStatus::Solved);
        EXPECT_NEAR(updated.info.objective, reference.info.objective,
                    1e-3 * (1.0 + std::abs(reference.info.objective)));
    }
}

TEST(Parametric, UpdateBoundsRejectsCrossedBounds)
{
    Rng rng(3);
    QpProblem problem = generatePortfolio(20, rng);
    OsqpSolver solver(problem, tightSettings());
    Vector l2 = problem.l;
    Vector u2 = problem.u;
    l2[0] = 5.0;
    u2[0] = -5.0;
    EXPECT_THROW(solver.updateBounds(l2, u2), FatalError);
}

TEST(Parametric, UpdateMatrixValuesMatchesFreshSolve)
{
    Rng rng(4);
    QpProblem problem = generateEqqp(24, rng);
    // Scale P and A values (same sparsity).
    std::vector<Real> p_values = problem.pUpper.values();
    for (Real& v : p_values)
        v *= 1.25;
    std::vector<Real> a_values = problem.a.values();
    for (Real& v : a_values)
        v *= 1.5;
    QpProblem fresh_problem = problem;
    fresh_problem.pUpper.values() = p_values;
    fresh_problem.a.values() = a_values;

    for (Engine engine : kEngines) {
        SCOPED_TRACE(engineName(engine));
        std::unique_ptr<QpBackend> solver =
            makeEngine(engine, problem, tightSettings());
        solver->solve();
        solver->updateMatrixValues(p_values, a_values);
        const OsqpResult updated = solver->solve();

        const OsqpResult reference =
            makeEngine(engine, fresh_problem, tightSettings())->solve();
        ASSERT_EQ(updated.info.status, reference.info.status);
        EXPECT_NEAR(updated.info.objective, reference.info.objective,
                    2e-3 * (1.0 + std::abs(reference.info.objective)));
    }
}

TEST(Parametric, SequenceOfCostUpdatesStaysSolved)
{
    // Mini backtest: re-solve the same portfolio structure with a
    // sequence of expected-return vectors, warm starting each time.
    Rng rng(5);
    QpProblem problem = generatePortfolio(40, rng);
    OsqpSolver solver(problem, tightSettings());
    OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    Index total_iterations = result.info.iterations;

    for (int step = 0; step < 5; ++step) {
        Vector q = problem.q;
        for (Real& v : q)
            v += rng.normal(0.0, 0.05);
        solver.updateLinearCost(q);
        solver.warmStart(result.x, result.y);
        result = solver.solve();
        ASSERT_EQ(result.info.status, SolveStatus::Solved);
        EXPECT_LE(result.info.iterations, total_iterations + 50);
    }
}


TEST(Parametric, ManualRhoUpdate)
{
    Rng rng(6);
    QpProblem problem = generatePortfolio(25, rng);
    OsqpSettings settings = tightSettings();
    settings.adaptiveRho = false;
    OsqpSolver solver(problem, settings);
    const OsqpResult before = solver.solve();
    ASSERT_EQ(before.info.status, SolveStatus::Solved);
    EXPECT_DOUBLE_EQ(solver.currentRho(), settings.rho);

    solver.updateRho(5.0);
    EXPECT_DOUBLE_EQ(solver.currentRho(), 5.0);
    const OsqpResult after = solver.solve();
    ASSERT_EQ(after.info.status, SolveStatus::Solved);
    // Same optimum from a different rho.
    EXPECT_NEAR(before.info.objective, after.info.objective,
                1e-3 * (1.0 + std::abs(before.info.objective)));
    EXPECT_THROW(solver.updateRho(-1.0), FatalError);
}

} // namespace
} // namespace rsqp
