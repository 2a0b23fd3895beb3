/**
 * @file
 * PCG (Algorithm 2) tests: exact-in-n-steps behaviour, tolerance
 * semantics, warm starting, preconditioner effect and thread-count
 * determinism.
 */

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "linalg/kkt.hpp"
#include "linalg/vector_ops.hpp"
#include "solvers/pcg.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

using test::randomSparse;
using test::randomSpdUpper;
using test::randomVector;

struct PcgFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        Rng rng(3);
        p = randomSpdUpper(12, 0.3, rng);
        a = randomSparse(8, 12, 0.3, rng);
        rho = constantVector(8, 1.0);
        op = std::make_unique<ReducedKktOperator>(p, a, 1e-6, rho);
        precond = std::make_unique<JacobiPreconditioner>(op->diagonal());
        b = randomVector(12, rng);
    }

    CscMatrix p, a;
    Vector rho, b;
    std::unique_ptr<ReducedKktOperator> op;
    std::unique_ptr<JacobiPreconditioner> precond;
};

TEST_F(PcgFixture, ConvergesToDirectSolution)
{
    Vector x(12, 0.0);
    PcgSettings settings;
    settings.epsRel = 1e-12;
    settings.adaptiveTolerance = false;
    const PcgResult result = pcgSolve(*op, *precond, b, x, settings);
    EXPECT_TRUE(result.converged);

    Vector kx;
    op->apply(x, kx);
    EXPECT_LT(test::maxAbsDiff(kx, b), 1e-8);
}

TEST_F(PcgFixture, ZeroRhsConvergesInstantly)
{
    Vector x(12, 0.0);
    const Vector zero(12, 0.0);
    PcgSettings settings;
    const PcgResult result = pcgSolve(*op, *precond, zero, x, settings);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.iterations, 0);
}

TEST_F(PcgFixture, WarmStartNearSolutionIsCheap)
{
    Vector x(12, 0.0);
    PcgSettings settings;
    settings.epsRel = 1e-10;
    settings.adaptiveTolerance = false;
    pcgSolve(*op, *precond, b, x, settings);

    Vector x2 = x;  // warm start at the solution
    const PcgResult warm = pcgSolve(*op, *precond, b, x2, settings);
    EXPECT_TRUE(warm.converged);
    EXPECT_LE(warm.iterations, 1);
}

TEST_F(PcgFixture, IterationCapRespected)
{
    Vector x(12, 0.0);
    PcgSettings settings;
    settings.epsRel = 1e-15;
    settings.epsAbs = 0.0;
    settings.maxIter = 2;
    settings.adaptiveTolerance = false;
    const PcgResult result = pcgSolve(*op, *precond, b, x, settings);
    EXPECT_LE(result.iterations, 2);
}

TEST_F(PcgFixture, ResidualMonotonicallyBelowToleranceAtExit)
{
    Vector x(12, 0.0);
    PcgSettings settings;
    settings.epsRel = 1e-6;
    settings.adaptiveTolerance = false;
    const PcgResult result = pcgSolve(*op, *precond, b, x, settings);
    ASSERT_TRUE(result.converged);
    EXPECT_LT(result.residualNorm, 1e-6 * norm2(b) + 1e-12);
}

TEST(Pcg, IdentityPreconditionerStillConverges)
{
    Rng rng(9);
    const CscMatrix p = randomSpdUpper(20, 0.2, rng);
    const CscMatrix a = randomSparse(10, 20, 0.2, rng);
    ReducedKktOperator op(p, a, 1e-6, constantVector(10, 0.5));
    JacobiPreconditioner identity(constantVector(20, 1.0));
    JacobiPreconditioner jacobi(op.diagonal());
    const Vector b = randomVector(20, rng);

    PcgSettings settings;
    settings.epsRel = 1e-9;
    settings.adaptiveTolerance = false;
    Vector x1(20, 0.0), x2(20, 0.0);
    const PcgResult plain = pcgSolve(op, identity, b, x1, settings);
    const PcgResult precond = pcgSolve(op, jacobi, b, x2, settings);
    EXPECT_TRUE(plain.converged);
    EXPECT_TRUE(precond.converged);
    // Diagonally dominant test matrices favor Jacobi (or tie).
    EXPECT_LE(precond.iterations, plain.iterations + 2);
}

TEST(Pcg, ExactInNStepsForSmallSystems)
{
    // CG converges in at most n iterations in exact arithmetic.
    Rng rng(21);
    const Index n = 6;
    const CscMatrix p = randomSpdUpper(n, 0.5, rng);
    const CscMatrix a(0 * 1, n);  // no constraints: K = P + sigma I
    ReducedKktOperator op(p, a, 1e-6, Vector{});
    JacobiPreconditioner precond(op.diagonal());
    const Vector b = randomVector(n, rng);
    Vector x(n, 0.0);
    PcgSettings settings;
    settings.epsRel = 1e-10;
    settings.adaptiveTolerance = false;
    const PcgResult result = pcgSolve(op, precond, b, x, settings);
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.iterations, n + 1);
}

TEST(Pcg, JacobiRejectsNonPositiveDiagonal)
{
    EXPECT_DEATH(JacobiPreconditioner({1.0, -2.0}),
                 "positive diagonal");
}

TEST(ThreadedPcg, SolveBitwiseIdenticalAcrossThreadCounts)
{
    // A diagonally dominant tridiagonal operator large enough to push
    // every dot/axpy in the loop onto the chunked parallel path.
    const Index n = 3 * kParallelThreshold;
    auto apply_k = [n](const Vector& in, Vector& out) {
        out.resize(in.size());
        for (Index i = 0; i < n; ++i) {
            const auto s = static_cast<std::size_t>(i);
            Real v = 4.0 * in[s];
            if (i > 0)
                v -= in[s - 1];
            if (i + 1 < n)
                v -= in[s + 1];
            out[s] = v;
        }
    };
    const Vector diag(static_cast<std::size_t>(n), 4.0);
    const JacobiPreconditioner precond(diag);
    Rng rng(31);
    Vector b(static_cast<std::size_t>(n));
    for (Real& v : b)
        v = rng.normal();
    PcgSettings settings;
    settings.adaptiveTolerance = false;
    settings.epsRel = 1e-10;

    Vector x_ref(static_cast<std::size_t>(n), 0.0);
    PcgResult ref;
    {
        NumThreadsScope scope(1);
        ref = pcgSolve(apply_k, precond, b, x_ref, settings);
    }
    ASSERT_TRUE(ref.converged);
    ASSERT_GT(ref.iterations, 2);

    for (Index threads : {2, 4, 8}) {
        NumThreadsScope scope(threads);
        Vector x(static_cast<std::size_t>(n), 0.0);
        const PcgResult result =
            pcgSolve(apply_k, precond, b, x, settings);
        EXPECT_EQ(result.iterations, ref.iterations);
        EXPECT_EQ(result.residualNorm, ref.residualNorm);
        // The whole iterate must match bit for bit, not within an
        // epsilon: reductions are chunked independently of threads.
        ASSERT_EQ(x, x_ref) << "threads " << threads;
    }
}

TEST_F(PcgFixture, ReusedWorkspaceGivesIdenticalResults)
{
    PcgSettings settings;
    settings.epsRel = 1e-10;
    settings.adaptiveTolerance = false;

    Vector x1(12, 0.0);
    const PcgResult r1 = pcgSolve(*op, *precond, b, x1, settings);

    // A workspace carried across calls (dirty from the first solve)
    // must not change anything: every vector is fully rewritten.
    PcgWorkspace workspace;
    Vector x2(12, 0.0);
    const PcgResult r2 =
        pcgSolve(*op, *precond, b, x2, settings, workspace);
    Vector x3(12, 0.0);
    const PcgResult r3 =
        pcgSolve(*op, *precond, b, x3, settings, workspace);

    EXPECT_TRUE(r1.converged);
    EXPECT_EQ(r1.iterations, r2.iterations);
    EXPECT_EQ(r2.iterations, r3.iterations);
    EXPECT_EQ(x1, x2);
    EXPECT_EQ(x2, x3);
}

TEST(PcgWorkspace, ResizeAllocatesAllFourVectors)
{
    PcgWorkspace workspace;
    workspace.resize(5);
    EXPECT_EQ(workspace.r.size(), 5u);
    EXPECT_EQ(workspace.d.size(), 5u);
    EXPECT_EQ(workspace.p.size(), 5u);
    EXPECT_EQ(workspace.kp.size(), 5u);
    // Shrinking reuses capacity; growing again is still correct.
    workspace.resize(2);
    workspace.resize(5);
    EXPECT_EQ(workspace.r.size(), 5u);
}

TEST(JacobiPreconditioner, RebuildReplacesDiagonalInPlace)
{
    JacobiPreconditioner precond({2.0, 4.0});
    precond.rebuild({8.0, 10.0});
    Vector out(2, 0.0);
    precond.apply({16.0, 20.0}, out);
    EXPECT_DOUBLE_EQ(out[0], 2.0);
    EXPECT_DOUBLE_EQ(out[1], 2.0);
}

TEST(JacobiPreconditioner, ApplyRequiresPreallocatedOutput)
{
    const JacobiPreconditioner precond({2.0, 4.0});
    Vector out(2, 0.0);
    precond.apply({1.0, 1.0}, out);  // correct size: fine
    EXPECT_DOUBLE_EQ(out[0], 0.5);
    Vector wrong;
    EXPECT_DEATH(precond.apply({1.0, 1.0}, wrong), "preallocated");
}

} // namespace
} // namespace rsqp
