/**
 * @file
 * KKT backend tests: the direct LDL' and indirect PCG backends must
 * agree on the ADMM step solution, honor rho updates, report
 * sensible statistics, stop PCG at the tolerance the ADMM loop hands
 * in, and trace the PCG hot-path phases.
 */

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/vector_ops.hpp"
#include "solvers/kkt_solver.hpp"
#include "telemetry/trace.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

using test::randomSparse;
using test::randomSpdUpper;
using test::randomVector;

struct KktSolverFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        Rng rng(8);
        p = randomSpdUpper(10, 0.3, rng);
        a = randomSparse(6, 10, 0.35, rng);
        rho = constantVector(6, 0.7);
        rhs_x = randomVector(10, rng);
        rhs_z = randomVector(6, rng);
    }

    PcgSettings
    tightPcg() const
    {
        PcgSettings settings;
        settings.epsRel = 1e-12;
        settings.adaptiveTolerance = false;
        return settings;
    }

    /**
     * ||b - K x_k|| after k PCG steps from x = 0 on the reduced system
     * an IndirectKktSolver builds from (rhs_x, rhs_z), run with no
     * stopping tolerance: the sequence every stopping rule reads.
     */
    std::vector<Real>
    residualSequence(Index steps) const
    {
        ReducedKktOperator op(p, a, sigma, rho);
        const JacobiPreconditioner precond(op.diagonal());
        Vector b = rhs_x;
        op.accumulateAtRho(rhs_z, b);
        PcgSettings none;
        none.adaptiveTolerance = false;
        none.epsRel = 0.0;
        none.epsAbs = 0.0;
        std::vector<Real> residuals;
        for (Index k = 0; k <= steps; ++k) {
            none.maxIter = k;
            Vector x(b.size(), 0.0);
            residuals.push_back(
                pcgSolve(op, precond, b, x, none).residualNorm);
        }
        return residuals;
    }

    /** Reduced rhs norm ||b||. */
    Real
    reducedRhsNorm() const
    {
        ReducedKktOperator op(p, a, sigma, rho);
        Vector b = rhs_x;
        op.accumulateAtRho(rhs_z, b);
        return norm2(b);
    }

    CscMatrix p, a;
    Vector rho, rhs_x, rhs_z;
    Real sigma = 1e-6;
};

/** Index of the first residual below tol (the PCG stopping step). */
Index
firstBelow(const std::vector<Real>& residuals, Real tol)
{
    for (std::size_t k = 0; k < residuals.size(); ++k)
        if (residuals[k] < tol)
            return static_cast<Index>(k);
    return -1;
}

TEST_F(KktSolverFixture, DirectAndIndirectAgree)
{
    DirectKktSolver direct(p, a, sigma, rho);
    IndirectKktSolver indirect(p, a, sigma, rho, tightPcg());

    Vector xd, zd, xi, zi;
    direct.solve(rhs_x, rhs_z, xd, zd);
    indirect.solve(rhs_x, rhs_z, xi, zi);

    EXPECT_LT(test::maxAbsDiff(xd, xi), 1e-7);
    EXPECT_LT(test::maxAbsDiff(zd, zi), 1e-7);
}

TEST_F(KktSolverFixture, DirectSatisfiesKktEquations)
{
    DirectKktSolver direct(p, a, sigma, rho);
    Vector x, z;
    direct.solve(rhs_x, rhs_z, x, z);

    // (P + sigma I) x + A' nu = rhs_x with nu = rho (A x - z_rhs...):
    // verify via the reduced equation K x = rhs_x + A' diag(rho) rhs_z.
    ReducedKktOperator op(p, a, sigma, rho);
    Vector kx;
    op.apply(x, kx);
    Vector b = rhs_x;
    Vector scaled = rhs_z;
    for (std::size_t i = 0; i < scaled.size(); ++i)
        scaled[i] *= rho[i];
    a.spmvTransposeAccumulate(scaled, b, 1.0);
    EXPECT_LT(test::maxAbsDiff(kx, b), 1e-8);

    // z output must be A x.
    Vector ax;
    a.spmv(x, ax);
    EXPECT_LT(test::maxAbsDiff(z, ax), 1e-8);
}

TEST_F(KktSolverFixture, RhoUpdateChangesSolution)
{
    DirectKktSolver direct(p, a, sigma, rho);
    Vector x1, z1;
    direct.solve(rhs_x, rhs_z, x1, z1);

    direct.updateRho(constantVector(6, 50.0));
    Vector x2, z2;
    const KktSolveStats stats = direct.solve(rhs_x, rhs_z, x2, z2);
    EXPECT_TRUE(stats.refactorized);
    EXPECT_GT(test::maxAbsDiff(x1, x2), 1e-8);

    // Fresh solver with the new rho agrees.
    DirectKktSolver fresh(p, a, sigma, constantVector(6, 50.0));
    Vector x3, z3;
    fresh.solve(rhs_x, rhs_z, x3, z3);
    EXPECT_LT(test::maxAbsDiff(x2, x3), 1e-9);
}

TEST_F(KktSolverFixture, IndirectRhoUpdateMatchesFreshSolver)
{
    IndirectKktSolver indirect(p, a, sigma, rho, tightPcg());
    Vector x1, z1;
    indirect.solve(rhs_x, rhs_z, x1, z1);
    indirect.updateRho(constantVector(6, 9.0));
    Vector x2, z2;
    indirect.solve(rhs_x, rhs_z, x2, z2);

    IndirectKktSolver fresh(p, a, sigma, constantVector(6, 9.0),
                            tightPcg());
    Vector x3, z3;
    fresh.solve(rhs_x, rhs_z, x3, z3);
    EXPECT_LT(test::maxAbsDiff(x2, x3), 1e-7);
}

TEST_F(KktSolverFixture, IndirectReportsPcgIterations)
{
    IndirectKktSolver indirect(p, a, sigma, rho, tightPcg());
    Vector x, z;
    const KktSolveStats stats = indirect.solve(rhs_x, rhs_z, x, z);
    EXPECT_GT(stats.pcgIterations, 0);
    EXPECT_EQ(indirect.totalPcgIterations(), stats.pcgIterations);
    EXPECT_EQ(indirect.lastPcgIterations(), stats.pcgIterations);

    // Warm start: repeating the same solve is much cheaper.
    Vector x2, z2;
    const KktSolveStats stats2 = indirect.solve(rhs_x, rhs_z, x2, z2);
    EXPECT_LE(stats2.pcgIterations, 1);
}

TEST_F(KktSolverFixture, IndirectStopsAtTheHandedTolerance)
{
    const std::vector<Real> residuals = residualSequence(30);
    const Real b_norm = reducedRhsNorm();

    // Fresh solver: loose start at epsRelStart * ||b|| = 1e-2 ||b||.
    IndirectKktSolver fresh(p, a, sigma, rho);
    EXPECT_FALSE(fresh.tolerance());
    Vector x, z;
    const Index loose = firstBelow(residuals, 1e-2 * b_norm);
    ASSERT_GT(loose, 0);
    EXPECT_EQ(fresh.solve(rhs_x, rhs_z, x, z).pcgIterations, loose);

    // A handed absolute tolerance replaces it: PCG stops at the first
    // iterate whose residual is below it, and not one step later.
    const Real handed = 1e-5 * b_norm;
    IndirectKktSolver tied(p, a, sigma, rho);
    tied.setTolerance(handed);
    ASSERT_EQ(tied.tolerance(), handed);
    const Index expected = firstBelow(residuals, handed);
    ASSERT_GT(expected, loose);
    const KktSolveStats stats = tied.solve(rhs_x, rhs_z, x, z);
    EXPECT_EQ(stats.pcgIterations, expected);
    EXPECT_LT(residuals[static_cast<std::size_t>(expected)], handed);
    EXPECT_GE(residuals[static_cast<std::size_t>(expected) - 1], handed);

    // epsRel * ||b|| stays the floor under a tolerance of zero.
    IndirectKktSolver floored(p, a, sigma, rho);
    floored.setTolerance(0.0);
    const Index floor = firstBelow(residuals, 1e-9 * b_norm);
    ASSERT_GT(floor, expected);
    EXPECT_EQ(floored.solve(rhs_x, rhs_z, x, z).pcgIterations, floor);
}

TEST_F(KktSolverFixture, IndirectRunsTheColdScheduleUntilHanded)
{
    // Solve k of a fresh backend stops where plain PCG at
    // max(epsRel, epsRelStart * kPcgEpsRelDecay^k) * ||b|| stops from
    // the same warm start, down to the 1e-9 floor; the first handed
    // tolerance ends the schedule.
    ReducedKktOperator op(p, a, sigma, rho);
    const JacobiPreconditioner precond(op.diagonal());
    IndirectKktSolver kkt(p, a, sigma, rho);
    PcgSettings reference;
    reference.adaptiveTolerance = false;
    Vector warm(rhs_x.size(), 0.0);
    Vector x, z;
    Real cold = reference.epsRelStart;
    const auto step = [&](int k) {
        // A new right-hand side each step, as ADMM makes them.
        Vector bx = rhs_x;
        for (Real& v : bx)
            v *= 1.0 + 0.05 * k;
        Vector b = bx;
        op.accumulateAtRho(rhs_z, b);
        const Index expected =
            pcgSolve(op, precond, b, warm, reference).iterations;
        EXPECT_EQ(kkt.solve(bx, rhs_z, x, z).pcgIterations, expected)
            << "solve " << k;
        EXPECT_EQ(x, warm) << "solve " << k;
    };
    int k = 0;
    for (; k < 140; ++k) {
        reference.epsRel = std::max(cold, Real(1e-9));
        step(k);
        cold *= kPcgEpsRelDecay;
    }
    EXPECT_LT(cold, 1e-9);

    kkt.setTolerance(1e-3);
    reference.epsRel = 1e-9;
    reference.epsAbs = 1e-3;
    for (; k < 150; ++k)
        step(k);
}

TEST_F(KktSolverFixture, FixedToleranceIgnoresTheHandedOne)
{
    // adaptiveTolerance = false: every solve stops at epsRel * ||b||.
    IndirectKktSolver plain(p, a, sigma, rho, tightPcg());
    IndirectKktSolver handed(p, a, sigma, rho, tightPcg());
    handed.setTolerance(1.0);
    Vector x1, z1, x2, z2;
    EXPECT_EQ(plain.solve(rhs_x, rhs_z, x1, z1).pcgIterations,
              handed.solve(rhs_x, rhs_z, x2, z2).pcgIterations);
    EXPECT_EQ(x1, x2);
}

TEST(PcgResidualTolerance, IsLambdaTimesGeometricMeanCappedByDual)
{
    EXPECT_EQ(kPcgResidualFraction, 0.15);
    // sqrt(prim * dual) when the dual residual is the larger one...
    EXPECT_DOUBLE_EQ(pcgResidualTolerance(1e-6, 4e-6), 0.15 * 2e-6);
    EXPECT_DOUBLE_EQ(pcgResidualTolerance(1.0, 9.0), 0.45);
    // ...and the dual residual itself when the primal one is larger,
    // as it stays on an infeasible problem.
    EXPECT_DOUBLE_EQ(pcgResidualTolerance(4e-6, 1e-6), 0.15 * 1e-6);
    EXPECT_DOUBLE_EQ(pcgResidualTolerance(9.0, 1.0), 0.15);
    EXPECT_EQ(pcgResidualTolerance(0.0, 1.0), 0.0);
    EXPECT_EQ(pcgResidualTolerance(1.0, 0.0), 0.0);
}

TEST_F(KktSolverFixture, OrderingChoiceDoesNotChangeSolution)
{
    DirectKktSolver natural(p, a, sigma, rho, OrderingKind::Natural);
    DirectKktSolver rcm(p, a, sigma, rho, OrderingKind::Rcm);
    Vector x1, z1, x2, z2;
    natural.solve(rhs_x, rhs_z, x1, z1);
    rcm.solve(rhs_x, rhs_z, x2, z2);
    EXPECT_LT(test::maxAbsDiff(x1, x2), 1e-9);
}

TEST_F(KktSolverFixture, BackendNamesStable)
{
    DirectKktSolver direct(p, a, sigma, rho);
    IndirectKktSolver indirect(p, a, sigma, rho);
    EXPECT_STREQ(direct.name(), "direct-ldl");
    EXPECT_STREQ(indirect.name(), "indirect-pcg");
}

TEST_F(KktSolverFixture, DirectUpdateMatrixValuesMatchesFreshSolver)
{
    DirectKktSolver solver(p, a, sigma, rho);
    Vector x0, z0;
    solver.solve(rhs_x, rhs_z, x0, z0);

    std::vector<Real> p_values = p.values();
    for (Real& v : p_values)
        v *= 2.0;
    std::vector<Real> a_values = a.values();
    for (Real& v : a_values)
        v *= 0.5;
    EXPECT_TRUE(solver.updateMatrixValues(p_values, a_values));
    Vector x1, z1;
    const KktSolveStats stats = solver.solve(rhs_x, rhs_z, x1, z1);
    EXPECT_TRUE(stats.refactorized);

    CscMatrix p2 = p;
    p2.values() = p_values;
    CscMatrix a2 = a;
    a2.values() = a_values;
    DirectKktSolver fresh(p2, a2, sigma, rho);
    Vector x2, z2;
    fresh.solve(rhs_x, rhs_z, x2, z2);
    EXPECT_LT(test::maxAbsDiff(x1, x2), 1e-9);
    EXPECT_LT(test::maxAbsDiff(z1, z2), 1e-9);
    EXPECT_GT(test::maxAbsDiff(x0, x1), 1e-9);  // values really changed
}

TEST_F(KktSolverFixture, IndirectUpdateMatrixValuesMatchesFreshSolver)
{
    // The indirect backend reads P/A through pointers: the caller
    // rewrites those matrices in place, then updateMatrixValues
    // re-reads them through the construction-time slot maps.
    CscMatrix p2 = p;
    CscMatrix a2 = a;
    IndirectKktSolver solver(p2, a2, sigma, rho, tightPcg());
    Vector x0, z0;
    solver.solve(rhs_x, rhs_z, x0, z0);

    for (Real& v : p2.values())
        v *= 2.0;
    for (Real& v : a2.values())
        v *= 0.5;
    EXPECT_TRUE(solver.updateMatrixValues(p2.values(), a2.values()));
    Vector x1, z1;
    solver.solve(rhs_x, rhs_z, x1, z1);

    IndirectKktSolver fresh(p2, a2, sigma, rho, tightPcg());
    Vector x2, z2;
    fresh.solve(rhs_x, rhs_z, x2, z2);
    EXPECT_LT(test::maxAbsDiff(x1, x2), 1e-7);
    EXPECT_LT(test::maxAbsDiff(z1, z2), 1e-7);
}

#if RSQP_TELEMETRY_ENABLED
TEST_F(KktSolverFixture, IndirectSolveRecordsPhaseSpans)
{
    using telemetry::TraceEvent;
    using telemetry::TraceRecorder;
    const std::vector<std::string> phases = {
        "kkt.spmv_p", "kkt.spmv_a", "kkt.spmv_at",
        "pcg.fused_vector_ops", "pcg.precond", "pcg.reduction"};
    const auto is_phase = [&](const TraceEvent& event) {
        return std::find(phases.begin(), phases.end(), event.name) !=
               phases.end();
    };
    TraceRecorder& recorder = TraceRecorder::global();
    recorder.disable();
    (void)recorder.drain();

    IndirectKktSolver indirect(p, a, sigma, rho, tightPcg());
    Vector x, z;
    recorder.enable();
    indirect.solve(rhs_x, rhs_z, x, z);
    recorder.disable();
    const std::vector<TraceEvent> events = recorder.drain().events;

    // Every phase runs at least once per solve, on the caller's thread
    // and nested inside that solve's kkt.pcg span.
    const auto pcg = std::find_if(
        events.begin(), events.end(), [](const TraceEvent& event) {
            return std::string(event.name) == "kkt.pcg";
        });
    ASSERT_NE(pcg, events.end());
    std::set<std::string> seen;
    for (const TraceEvent& event : events) {
        if (!is_phase(event))
            continue;
        seen.insert(event.name);
        EXPECT_EQ(event.tid, pcg->tid) << event.name;
        EXPECT_GE(event.startNs, pcg->startNs) << event.name;
        EXPECT_LE(event.startNs + event.durationNs,
                  pcg->startNs + pcg->durationNs)
            << event.name;
    }
    EXPECT_EQ(seen.size(), phases.size());

    // The direct backend and the shared vector kernels record no
    // phases, and a disabled recorder records nothing at all.
    DirectKktSolver direct(p, a, sigma, rho);
    recorder.enable();
    direct.solve(rhs_x, rhs_z, x, z);
    (void)dot(rhs_x, rhs_x);
    recorder.disable();
    indirect.solve(rhs_x, rhs_z, x, z);
    for (const TraceEvent& event : recorder.drain().events)
        EXPECT_FALSE(is_phase(event)) << event.name;
}
#else
TEST_F(KktSolverFixture, IndirectSolveRecordsNoSpansCompiledOut)
{
    telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::global();
    IndirectKktSolver indirect(p, a, sigma, rho, tightPcg());
    Vector x, z;
    recorder.enable();
    indirect.solve(rhs_x, rhs_z, x, z);
    recorder.disable();
    EXPECT_TRUE(recorder.drain().events.empty());
}
#endif

TEST_F(KktSolverFixture, BaseClassDeclinesMatrixValueUpdates)
{
    // A backend that does not override updateMatrixValues reports
    // false so the caller knows to rebuild it.
    class MinimalSolver : public KktSolver
    {
      public:
        KktSolveStats
        solve(const Vector&, const Vector&, Vector&, Vector&) override
        {
            return {};
        }
        void updateRho(const Vector&) override {}
        const char* name() const override { return "minimal"; }
    };
    MinimalSolver minimal;
    EXPECT_FALSE(minimal.updateMatrixValues({}, {}));
}

} // namespace
} // namespace rsqp
