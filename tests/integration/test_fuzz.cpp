/**
 * @file
 * Randomized cross-backend fuzzing: random QPs (random shapes,
 * densities, bound patterns including equalities, loose rows and
 * one-sided bounds) solved by the direct CPU, indirect CPU and
 * simulated-accelerator backends must agree whenever they report
 * Solved, across random solver settings.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/rsqp.hpp"
#include "osqp/residuals.hpp"
#include "linalg/vector_ops.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

/** Random but well-posed QP with a mixed constraint menagerie. */
QpProblem
fuzzProblem(Rng& rng)
{
    const Index n = 2 + rng.uniformIndex(25);
    const Index m = 1 + rng.uniformIndex(30);
    QpProblem qp;
    qp.pUpper = test::randomSpdUpper(
        n, 0.1 + 0.4 * rng.uniform(), rng);
    // Occasionally knock out diagonal curvature on some variables
    // (semidefinite P), keeping it PSD by zeroing whole rows/cols.
    qp.q = test::randomVector(n, rng);
    TripletList a_triplets(m, n);
    for (Index i = 0; i < m; ++i) {
        const Index k =
            1 + rng.uniformIndex(std::min<Index>(n, 6));
        for (Index c : rng.sampleDistinct(n, k))
            a_triplets.add(i, c, rng.normal());
    }
    qp.a = CscMatrix::fromTriplets(a_triplets);
    qp.l.resize(static_cast<std::size_t>(m));
    qp.u.resize(static_cast<std::size_t>(m));
    for (Index i = 0; i < m; ++i) {
        const auto s = static_cast<std::size_t>(i);
        const Real center = rng.normal();
        switch (rng.uniformIndex(5)) {
          case 0:  // equality
            qp.l[s] = center;
            qp.u[s] = center;
            break;
          case 1:  // lower bound only
            qp.l[s] = center;
            qp.u[s] = kInf;
            break;
          case 2:  // upper bound only
            qp.l[s] = -kInf;
            qp.u[s] = center;
            break;
          case 3:  // loose
            qp.l[s] = -kInf;
            qp.u[s] = kInf;
            break;
          default:  // two-sided interval
            qp.l[s] = center - rng.uniform(0.1, 2.0);
            qp.u[s] = center + rng.uniform(0.1, 2.0);
        }
    }
    qp.name = "fuzz";
    return qp;
}

class BackendFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(BackendFuzz, BackendsAgreeWhenSolved)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
    const QpProblem qp = fuzzProblem(rng);

    OsqpSettings settings;
    settings.epsAbs = 1e-5;
    settings.epsRel = 1e-5;
    settings.maxIter = 10000;
    // Randomize a few solver knobs.
    settings.alpha = rng.uniform(1.0, 1.9);
    settings.rho = std::pow(10.0, rng.uniform(-2.0, 0.5));
    settings.adaptiveRho = rng.bernoulli(0.7);
    settings.scalingIterations = rng.bernoulli(0.8) ? 10 : 0;

    settings.backend = KktBackend::DirectLdl;
    const OsqpResult rd = OsqpSolver(qp, settings).solve();
    settings.backend = KktBackend::IndirectPcg;
    const OsqpResult ri = OsqpSolver(qp, settings).solve();

    // Feasibility status must agree between backends on clear-cut
    // outcomes (both certificates are scale-sensitive, so only check
    // when both terminated with a certificate or both solved).
    if (rd.info.status == SolveStatus::Solved &&
        ri.info.status == SolveStatus::Solved) {
        const Real scale = 1.0 + std::abs(rd.info.objective);
        EXPECT_NEAR(rd.info.objective, ri.info.objective,
                    5e-2 * scale);

        // The accelerated solve matches the indirect reference.
        CustomizeSettings custom;
        custom.c = 16;
        RsqpSolver device(qp, settings, custom);
        const OsqpResult ra = device.solve();
        EXPECT_EQ(ra.info.status, SolveStatus::Solved);
        EXPECT_NEAR(ra.info.objective, ri.info.objective, 5e-2 * scale);

        // KKT check of the accelerated solution.
        const ResidualInfo res = computeResiduals(
            qp, ra.x, ra.y, ra.z, settings.epsAbs, settings.epsRel);
        EXPECT_TRUE(res.converged())
            << "prim " << res.primRes << "/" << res.epsPrim
            << " dual " << res.dualRes << "/" << res.epsDual;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendFuzz, ::testing::Range(1, 25));

/** Settings fuzz on one fixed problem: every combination must solve. */
class SettingsFuzz
    : public ::testing::TestWithParam<std::tuple<bool, bool, int>>
{};

TEST_P(SettingsFuzz, PortfolioAlwaysSolves)
{
    const auto [adaptive_rho, scaling, check_interval] = GetParam();
    const QpProblem qp = generateProblem(Domain::Portfolio, 30, 77);
    OsqpSettings settings;
    settings.adaptiveRho = adaptive_rho;
    settings.scalingIterations = scaling ? 10 : 0;
    settings.checkInterval = check_interval;
    settings.adaptiveRhoInterval =
        ((100 + check_interval - 1) / check_interval) * check_interval;
    settings.maxIter = 8000;
    const OsqpResult result = OsqpSolver(qp, settings).solve();
    EXPECT_EQ(result.info.status, SolveStatus::Solved);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SettingsFuzz,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 5, 25, 50)));

// ---------------------------------------------------------------------
// Malformed-problem corpora: every corruption must surface as a typed
// InvalidProblem result (never a crash, throw, or garbage solve) on
// both the CPU solver and the simulated accelerator.
// ---------------------------------------------------------------------

/** Solve with both OsqpSolver and RsqpSolver; assert typed rejection. */
void
expectRejected(const QpProblem& qp, ValidationCode code)
{
    OsqpSolver cpu(qp, OsqpSettings{});
    EXPECT_FALSE(cpu.validation().ok());
    const OsqpResult r = cpu.solve();
    EXPECT_EQ(r.info.status, SolveStatus::InvalidProblem);
    EXPECT_TRUE(r.validation.has(code)) << r.validation.describe();

    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver device(qp, OsqpSettings{}, custom);
    EXPECT_FALSE(device.validation().ok());
    const OsqpResult ra = device.solve();
    EXPECT_EQ(ra.info.status, SolveStatus::InvalidProblem);
    EXPECT_TRUE(ra.validation.has(code)) << ra.validation.describe();
}

TEST(MalformedProblem, NanInLinearCost)
{
    Rng rng(101);
    QpProblem qp = fuzzProblem(rng);
    qp.q[qp.q.size() / 2] = std::numeric_limits<Real>::quiet_NaN();
    expectRejected(qp, ValidationCode::NonFiniteData);
}

TEST(MalformedProblem, InfInMatrixValues)
{
    Rng rng(102);
    QpProblem qp = fuzzProblem(rng);
    std::vector<Real>& vals = qp.a.values();
    ASSERT_FALSE(vals.empty());
    vals[0] = std::numeric_limits<Real>::infinity();
    expectRejected(qp, ValidationCode::NonFiniteData);
}

TEST(MalformedProblem, CrossedBounds)
{
    Rng rng(103);
    QpProblem qp = fuzzProblem(rng);
    qp.l[0] = 1.0;
    qp.u[0] = -1.0;
    expectRejected(qp, ValidationCode::InfeasibleBounds);
}

TEST(MalformedProblem, RaggedColumnPointers)
{
    Rng rng(104);
    QpProblem qp = fuzzProblem(rng);
    const Index n = qp.numVariables();
    const Index m = qp.numConstraints();
    // Decreasing colPtr (ragged) with in-range row indices.
    std::vector<Index> col_ptr(static_cast<std::size_t>(n) + 1, 0);
    col_ptr[1] = 2;
    col_ptr[2] = 1;  // decreasing: structurally broken
    for (std::size_t j = 3; j < col_ptr.size(); ++j)
        col_ptr[j] = 2;
    qp.a = CscMatrix::fromRawUnchecked(m, n, col_ptr, {0, 0},
                                       {1.0, 1.0});
    expectRejected(qp, ValidationCode::InvalidSparseStructure);
}

TEST(MalformedProblem, NegativeAndOutOfRangeRowIndices)
{
    Rng rng(105);
    QpProblem qp = fuzzProblem(rng);
    const Index n = qp.numVariables();
    const Index m = qp.numConstraints();
    std::vector<Index> col_ptr(static_cast<std::size_t>(n) + 1, 2);
    col_ptr[0] = 0;
    col_ptr[1] = 2;
    qp.a = CscMatrix::fromRawUnchecked(m, n, col_ptr, {-1, m + 7},
                                       {1.0, 1.0});
    expectRejected(qp, ValidationCode::InvalidSparseStructure);
}

TEST(MalformedProblem, DimensionMismatch)
{
    Rng rng(106);
    QpProblem qp = fuzzProblem(rng);
    qp.q.push_back(0.0);  // q longer than n
    expectRejected(qp, ValidationCode::DimensionMismatch);
}

TEST(MalformedProblem, LowerTriangularEntryInP)
{
    Rng rng(107);
    QpProblem qp = fuzzProblem(rng);
    TripletList triplets(qp.numVariables(), qp.numVariables());
    triplets.add(0, 0, 1.0);
    if (qp.numVariables() > 1)
        triplets.add(1, 0, 0.5);  // below the diagonal
    qp.pUpper = CscMatrix::fromTriplets(triplets);
    expectRejected(qp, ValidationCode::NotUpperTriangular);
}

/** Random single-element corruptions must never crash the pipeline. */
class CorruptionFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(CorruptionFuzz, AlwaysTypedOutcome)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
    QpProblem qp = fuzzProblem(rng);
    const Real nan = std::numeric_limits<Real>::quiet_NaN();
    switch (rng.uniformIndex(4)) {
      case 0:
        qp.q[static_cast<std::size_t>(
            rng.uniformIndex(static_cast<Index>(qp.q.size())))] = nan;
        break;
      case 1:
        qp.l[static_cast<std::size_t>(
            rng.uniformIndex(qp.numConstraints()))] = nan;
        break;
      case 2: {
        std::vector<Real>& vals = qp.pUpper.values();
        if (vals.empty())
            return;
        vals[static_cast<std::size_t>(rng.uniformIndex(
            static_cast<Index>(vals.size())))] = nan;
        break;
      }
      default: {
        const auto i = static_cast<std::size_t>(
            rng.uniformIndex(qp.numConstraints()));
        qp.l[i] = 1.0;
        qp.u[i] = -1.0;
      }
    }
    OsqpSolver solver(qp, OsqpSettings{});
    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::InvalidProblem);
    EXPECT_FALSE(result.validation.ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionFuzz,
                         ::testing::Range(1, 13));

} // namespace
} // namespace rsqp
