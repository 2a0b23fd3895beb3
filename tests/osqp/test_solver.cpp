/**
 * @file
 * OSQP solver tests: hand-checkable QPs with known solutions, KKT
 * optimality of returned solutions, backend equivalence, and a
 * parameterized sweep over all six benchmark domains.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/solver.hpp"
#include "problems/suite.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

/** min (1/2)(x0^2 + x1^2) - x0 - x1  s.t. x0 + x1 = 1, x >= 0.
 *  Solution: x = (0.5, 0.5). */
QpProblem
simpleEqualityQp()
{
    QpProblem problem;
    TripletList p_triplets(2, 2);
    p_triplets.add(0, 0, 1.0);
    p_triplets.add(1, 1, 1.0);
    problem.pUpper = CscMatrix::fromTriplets(p_triplets);
    problem.q = {-1.0, -1.0};
    TripletList a_triplets(3, 2);
    a_triplets.add(0, 0, 1.0);
    a_triplets.add(0, 1, 1.0);
    a_triplets.add(1, 0, 1.0);
    a_triplets.add(2, 1, 1.0);
    problem.a = CscMatrix::fromTriplets(a_triplets);
    problem.l = {1.0, 0.0, 0.0};
    problem.u = {1.0, kInf, kInf};
    problem.name = "simple_eq";
    return problem;
}

/** Box-constrained separable QP with the unconstrained optimum
 *  outside the box: min (1/2)||x||^2 - 10 x0, 0 <= x <= 2. */
QpProblem
boxQp()
{
    QpProblem problem;
    TripletList p_triplets(3, 3);
    for (Index i = 0; i < 3; ++i)
        p_triplets.add(i, i, 1.0);
    problem.pUpper = CscMatrix::fromTriplets(p_triplets);
    problem.q = {-10.0, 1.0, 0.0};
    TripletList a_triplets(3, 3);
    for (Index i = 0; i < 3; ++i)
        a_triplets.add(i, i, 1.0);
    problem.a = CscMatrix::fromTriplets(a_triplets);
    problem.l = {0.0, 0.0, 0.0};
    problem.u = {2.0, 2.0, 2.0};
    problem.name = "box";
    return problem;
}

OsqpSettings
defaultSettings(KktBackend backend)
{
    OsqpSettings settings;
    settings.backend = backend;
    settings.epsAbs = 1e-5;
    settings.epsRel = 1e-5;
    return settings;
}

TEST(OsqpSolver, SolvesSimpleEqualityQp)
{
    OsqpSolver solver(simpleEqualityQp(),
                      defaultSettings(KktBackend::DirectLdl));
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    EXPECT_NEAR(result.x[0], 0.5, 1e-3);
    EXPECT_NEAR(result.x[1], 0.5, 1e-3);
    EXPECT_NEAR(result.info.objective, 0.25 - 1.0, 1e-3);
}

TEST(OsqpSolver, SolvesBoxQpAtBound)
{
    OsqpSolver solver(boxQp(), defaultSettings(KktBackend::DirectLdl));
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    EXPECT_NEAR(result.x[0], 2.0, 1e-3);  // clipped at the box
    EXPECT_NEAR(result.x[1], 0.0, 1e-3);  // pushed to zero
    EXPECT_NEAR(result.x[2], 0.0, 1e-3);  // free at zero
}

TEST(OsqpSolver, DualVariablesSatisfyStationarity)
{
    const QpProblem problem = simpleEqualityQp();
    OsqpSolver solver(problem, defaultSettings(KktBackend::DirectLdl));
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    // P x + q + A' y ~ 0.
    Vector px;
    problem.pUpper.spmvSymUpper(result.x, px);
    Vector aty;
    problem.a.spmvTranspose(result.y, aty);
    for (Index j = 0; j < 2; ++j) {
        const auto s = static_cast<std::size_t>(j);
        EXPECT_NEAR(px[s] + problem.q[s] + aty[s], 0.0, 1e-3);
    }
}

TEST(OsqpSolver, ReportsResidualsBelowTolerance)
{
    OsqpSolver solver(boxQp(), defaultSettings(KktBackend::DirectLdl));
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    EXPECT_LE(result.info.primRes, 1e-4);
    EXPECT_LE(result.info.dualRes, 1e-4);
}

TEST(OsqpSolver, MaxIterReached)
{
    OsqpSettings settings = defaultSettings(KktBackend::DirectLdl);
    settings.maxIter = 2;
    settings.checkInterval = 1;
    settings.epsAbs = 1e-12;
    settings.epsRel = 1e-12;
    Rng rng(3);
    OsqpSolver solver(generateProblem(Domain::Portfolio, 30, 3),
                      settings);
    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::MaxIterReached);
    EXPECT_EQ(result.info.iterations, 2);
}

TEST(OsqpSolver, TraceRecordsResidualHistory)
{
    OsqpSettings settings = defaultSettings(KktBackend::DirectLdl);
    settings.recordTrace = true;
    OsqpSolver solver(boxQp(), settings);
    const OsqpResult result = solver.solve();
    ASSERT_FALSE(result.trace.empty());
    for (const IterationRecord& rec : result.trace) {
        EXPECT_GT(rec.iteration, 0);
        EXPECT_GE(rec.primRes, 0.0);
        EXPECT_GT(rec.rho, 0.0);
    }
}

TEST(OsqpSolver, WarmStartReducesIterations)
{
    Rng rng(6);
    const QpProblem problem = generateProblem(Domain::Svm, 30, 11);
    OsqpSolver cold(problem, defaultSettings(KktBackend::DirectLdl));
    const OsqpResult first = cold.solve();
    ASSERT_EQ(first.info.status, SolveStatus::Solved);

    OsqpSolver warm(problem, defaultSettings(KktBackend::DirectLdl));
    warm.warmStart(first.x, first.y);
    const OsqpResult second = warm.solve();
    ASSERT_EQ(second.info.status, SolveStatus::Solved);
    EXPECT_LT(second.info.iterations, first.info.iterations);
}

TEST(OsqpSolver, WarmStartSizeMismatchIsNonFatal)
{
    const QpProblem problem = generateProblem(Domain::Svm, 30, 11);
    OsqpSolver solver(problem, defaultSettings(KktBackend::DirectLdl));

    // A wrong-shaped guess is a recoverable client error: ignored with
    // a warning, no abort, and the solve proceeds normally.
    Vector shortX(static_cast<std::size_t>(problem.numVariables() - 1),
                  0.0);
    Vector y(static_cast<std::size_t>(problem.numConstraints()), 0.0);
    EXPECT_FALSE(solver.warmStart(shortX, y));
    Vector x(static_cast<std::size_t>(problem.numVariables()), 0.0);
    Vector longY(static_cast<std::size_t>(problem.numConstraints() + 3),
                 0.0);
    EXPECT_FALSE(solver.warmStart(x, longY));
    EXPECT_TRUE(solver.warmStart(x, y));

    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::Solved);
}

TEST(OsqpSolver, InvalidSettingsRejected)
{
    // Malformed settings no longer throw: the solver is inert and
    // every solve() reports a typed InvalidProblem with diagnostics.
    OsqpSettings settings;
    settings.alpha = 2.5;
    {
        OsqpSolver solver(boxQp(), settings);
        EXPECT_FALSE(solver.validation().ok());
        const OsqpResult result = solver.solve();
        EXPECT_EQ(result.info.status, SolveStatus::InvalidProblem);
    }
    settings = OsqpSettings{};
    settings.rho = -1.0;
    {
        OsqpSolver solver(boxQp(), settings);
        EXPECT_FALSE(solver.validation().ok());
        EXPECT_EQ(solver.solve().info.status,
                  SolveStatus::InvalidProblem);
    }
}

TEST(OsqpSolver, InvalidProblemRejected)
{
    QpProblem problem = boxQp();
    problem.l[0] = 3.0;  // l > u
    // Malformed data no longer throws: the solver is constructed inert
    // and solve() reports a typed failure with diagnostics attached.
    OsqpSolver solver(problem, OsqpSettings{});
    EXPECT_FALSE(solver.validation().ok());
    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::InvalidProblem);
    EXPECT_TRUE(result.validation.has(ValidationCode::InfeasibleBounds));
}

/** Both backends must solve every benchmark domain to tolerance. */
class OsqpDomainSweep
    : public ::testing::TestWithParam<std::tuple<Domain, KktBackend>>
{};

TEST_P(OsqpDomainSweep, SolvesToTolerance)
{
    const auto [domain, backend] = GetParam();
    const Index size = domain == Domain::Control ? 8 : 40;
    const QpProblem problem = generateProblem(domain, size, 99);
    OsqpSolver solver(problem, defaultSettings(backend));
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved)
        << toString(domain) << " with "
        << (backend == KktBackend::DirectLdl ? "direct" : "indirect");

    // Residuals must satisfy the OSQP termination criterion (the
    // relative part scales with the problem data norms).
    Vector ax, px, aty;
    problem.a.spmv(result.x, ax);
    problem.pUpper.spmvSymUpper(result.x, px);
    problem.a.spmvTranspose(result.y, aty);
    const Real eps_prim = 1e-5 +
        1e-5 * std::max(normInf(ax), normInf(result.z));
    const Real eps_dual = 1e-5 +
        1e-5 * std::max({normInf(px), normInf(aty),
                         normInf(problem.q)});
    EXPECT_LE(result.info.primRes, eps_prim);
    EXPECT_LE(result.info.dualRes, eps_dual);
}

INSTANTIATE_TEST_SUITE_P(
    AllDomains, OsqpDomainSweep,
    ::testing::Combine(::testing::Values(Domain::Control, Domain::Lasso,
                                         Domain::Huber, Domain::Portfolio,
                                         Domain::Svm, Domain::Eqqp),
                       ::testing::Values(KktBackend::DirectLdl,
                                         KktBackend::IndirectPcg)));

/**
 * A fresh solver's PCG backend runs its first solve on the cold
 * schedule and holds no tolerance; at the end of each solve it holds
 * pcgResidualTolerance of that solve's last check, and an update does
 * not reset it.
 */
TEST(OsqpSolver, PcgToleranceFollowsTheLastCheck)
{
    const QpProblem problem = generateProblem(Domain::Lasso, 30, 3);
    OsqpSolver solver(problem, defaultSettings(KktBackend::IndirectPcg));
    const auto tolerance = [&solver] {
        const auto* kkt =
            dynamic_cast<const IndirectKktSolver*>(solver.kktSolver());
        EXPECT_NE(kkt, nullptr);
        return kkt->tolerance();
    };
    EXPECT_FALSE(tolerance());

    const OsqpResult first = solver.solve();
    ASSERT_EQ(first.info.status, SolveStatus::Solved);
    ASSERT_TRUE(tolerance());
    EXPECT_EQ(*tolerance(), pcgResidualTolerance(first.info.primRes,
                                                  first.info.dualRes));

    Vector q = problem.q;
    for (Real& v : q)
        v *= 1.01;
    solver.updateLinearCost(q);
    EXPECT_EQ(*tolerance(), pcgResidualTolerance(first.info.primRes,
                                                 first.info.dualRes));
    const OsqpResult second = solver.solve();
    ASSERT_EQ(second.info.status, SolveStatus::Solved);
    EXPECT_EQ(*tolerance(), pcgResidualTolerance(second.info.primRes,
                                                 second.info.dualRes));

    // The direct backend has no PCG and no tolerance to follow.
    OsqpSolver direct(problem, defaultSettings(KktBackend::DirectLdl));
    direct.solve();
    EXPECT_EQ(dynamic_cast<const IndirectKktSolver*>(direct.kktSolver()),
              nullptr);
}

/**
 * Residual checks steer PCG only after the backend's first solve: two
 * solvers that differ only in checkInterval take bit-identical first
 * solves, since no check moves the iterates of a cold solve, and
 * different second solves, since each then follows its own checks.
 */
TEST(OsqpSolver, ChecksSteerPcgOnlyAfterTheFirstSolve)
{
    const QpProblem problem = generateProblem(Domain::Lasso, 30, 3);
    OsqpSettings rare = defaultSettings(KktBackend::IndirectPcg);
    rare.adaptiveRho = false;
    rare.maxIter = 25;
    rare.epsAbs = 1e-12;  // run all 25 iterations
    rare.epsRel = 1e-12;
    rare.checkInterval = 25;
    OsqpSettings often = rare;
    often.checkInterval = 5;
    OsqpSolver a(problem, rare);
    OsqpSolver b(problem, often);

    const OsqpResult a1 = a.solve();
    const OsqpResult b1 = b.solve();
    ASSERT_EQ(a1.info.iterations, 25);
    ASSERT_EQ(b1.info.iterations, 25);
    EXPECT_EQ(a1.info.pcgIterationsTotal, b1.info.pcgIterationsTotal);
    EXPECT_EQ(a1.x, b1.x);
    EXPECT_EQ(a1.y, b1.y);

    const OsqpResult a2 = a.solve();
    const OsqpResult b2 = b.solve();
    ASSERT_EQ(a2.info.iterations, 25);
    ASSERT_EQ(b2.info.iterations, 25);
    EXPECT_NE(a2.x, b2.x);
}

/** Backends agree on the optimal objective. */
class BackendAgreement : public ::testing::TestWithParam<Domain>
{};

TEST_P(BackendAgreement, ObjectivesMatch)
{
    const Domain domain = GetParam();
    const Index size = domain == Domain::Control ? 6 : 30;
    const QpProblem problem = generateProblem(domain, size, 5);
    OsqpSolver direct(problem, defaultSettings(KktBackend::DirectLdl));
    OsqpSolver indirect(problem,
                        defaultSettings(KktBackend::IndirectPcg));
    const OsqpResult rd = direct.solve();
    const OsqpResult ri = indirect.solve();
    ASSERT_EQ(rd.info.status, SolveStatus::Solved);
    ASSERT_EQ(ri.info.status, SolveStatus::Solved);
    const Real scale = 1.0 + std::abs(rd.info.objective);
    EXPECT_NEAR(rd.info.objective, ri.info.objective, 2e-2 * scale);
}

INSTANTIATE_TEST_SUITE_P(AllDomains, BackendAgreement,
                         ::testing::Values(Domain::Control, Domain::Lasso,
                                           Domain::Huber,
                                           Domain::Portfolio, Domain::Svm,
                                           Domain::Eqqp));

} // namespace
} // namespace rsqp
