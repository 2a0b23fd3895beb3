/**
 * @file
 * KKT backend tests: the direct LDL' and indirect PCG backends must
 * agree on the ADMM step solution, honor rho updates, report
 * sensible statistics, and trace the PCG hot-path phases.
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

    CscMatrix p, a;
    Vector rho, rhs_x, rhs_z;
    Real sigma = 1e-6;
};

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
