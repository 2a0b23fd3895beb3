/**
 * @file
 * SolverSession tests: the three request paths (parametric reuse,
 * cache-hit rebuild, cold rebuild), warm-start carry-over, counter
 * bookkeeping, and the acceptance property that a cache-hit solve is
 * bitwise identical to a cold-cache solve.
 */

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "backends/backend_selector.hpp"
#include "problems/suite.hpp"
#include "service/session.hpp"

namespace rsqp
{
namespace
{

SessionConfig
deviceConfig()
{
    SessionConfig config;
    config.custom.c = 16;
    return config;
}

/** Same structure, different q. */
QpProblem
withScaledCost(const QpProblem& qp, Real factor)
{
    QpProblem out = qp;
    for (Real& v : out.q)
        v *= factor;
    return out;
}

TEST(SolverSession, FirstSolveIsColdMiss)
{
    auto cache = std::make_shared<CustomizationCache>(8);
    SolverSession session(deviceConfig(), cache);
    const QpProblem qp = generateProblem(Domain::Control, 25, 3);

    const SessionResult result = session.solve(qp);
    ASSERT_EQ(result.status, SolveStatus::Solved);
    EXPECT_FALSE(result.parametricReuse);
    EXPECT_FALSE(result.cacheHit);
    EXPECT_FALSE(result.warmStarted);
    EXPECT_GT(result.deviceSeconds, 0.0);

    const SessionStats& stats = session.stats();
    EXPECT_EQ(stats.solves, 1);
    EXPECT_EQ(stats.rebuilds, 1);
    EXPECT_EQ(stats.cacheMisses, 1);
    EXPECT_EQ(stats.cacheHits, 0);
    EXPECT_EQ(cache->stats().size, 1u);
}

TEST(SolverSession, RepeatStructureTakesParametricPath)
{
    auto cache = std::make_shared<CustomizationCache>(8);
    SolverSession session(deviceConfig(), cache);
    const QpProblem qp = generateProblem(Domain::Lasso, 30, 5);

    const SessionResult first = session.solve(qp);
    ASSERT_EQ(first.status, SolveStatus::Solved);
    const SessionResult second =
        session.solve(withScaledCost(qp, 0.5));
    ASSERT_EQ(second.status, SolveStatus::Solved);

    EXPECT_TRUE(second.parametricReuse);
    EXPECT_TRUE(second.warmStarted);
    const SessionStats& stats = session.stats();
    EXPECT_EQ(stats.solves, 2);
    EXPECT_EQ(stats.rebuilds, 1);
    EXPECT_EQ(stats.parametricSolves, 1);
    EXPECT_EQ(stats.warmStarts, 1);
    // The parametric path performs zero customization work: the cache
    // saw exactly one lookup (the cold miss).
    EXPECT_EQ(cache->stats().hits + cache->stats().misses, 1);
}

TEST(SolverSession, CacheHitSolveIsBitwiseEqualToColdSolve)
{
    // The acceptance property: session B has never seen the structure
    // (no warm state, fresh solver) but finds session A's artifact in
    // the shared cache. Its solve must perform zero customization work
    // and reproduce a cold-cache solve of the same problem bitwise.
    auto cache = std::make_shared<CustomizationCache>(8);
    const QpProblem qp = generateProblem(Domain::Portfolio, 30, 7);
    const QpProblem probe = withScaledCost(qp, 1.7);
    const SessionConfig config = deviceConfig();

    SolverSession sessionA(config, cache);
    ASSERT_EQ(sessionA.solve(qp).status, SolveStatus::Solved);
    ASSERT_EQ(cache->stats().size, 1u);

    SolverSession sessionB(config, cache);
    const SessionResult viaCache = sessionB.solve(probe);
    ASSERT_EQ(viaCache.status, SolveStatus::Solved);
    EXPECT_TRUE(viaCache.cacheHit);
    EXPECT_FALSE(viaCache.warmStarted);
    EXPECT_EQ(sessionB.stats().cacheHits, 1);
    EXPECT_EQ(sessionB.stats().cacheMisses, 0);

    RsqpSolver cold(probe, config.osqp, config.custom);
    ASSERT_FALSE(cold.customizationReused());
    const OsqpResult reference = cold.solve();
    ASSERT_EQ(reference.info.status, viaCache.status);
    EXPECT_EQ(reference.x, viaCache.x);
    EXPECT_EQ(reference.y, viaCache.y);
    EXPECT_EQ(reference.z, viaCache.z);
    EXPECT_EQ(reference.info.iterations, viaCache.iterations);
}

TEST(SolverSession, StructureChangeRebuildsAndDropsWarmState)
{
    auto cache = std::make_shared<CustomizationCache>(8);
    SolverSession session(deviceConfig(), cache);

    const QpProblem small = generateProblem(Domain::Huber, 20, 2);
    const QpProblem large = generateProblem(Domain::Huber, 35, 2);
    ASSERT_EQ(session.solve(small).status, SolveStatus::Solved);
    const SessionResult second = session.solve(large);
    ASSERT_EQ(second.status, SolveStatus::Solved);

    EXPECT_FALSE(second.parametricReuse);
    // Different shape: the previous solution must not be applied.
    EXPECT_FALSE(second.warmStarted);
    EXPECT_EQ(session.stats().rebuilds, 2);

    // Coming back to the first structure is a cache hit, and the warm
    // state from the large problem is rejected by shape.
    const SessionResult third = session.solve(small);
    ASSERT_EQ(third.status, SolveStatus::Solved);
    EXPECT_TRUE(third.cacheHit);
    EXPECT_FALSE(third.warmStarted);
}

TEST(SolverSession, WithoutCacheEverySolveWorks)
{
    SolverSession session(deviceConfig(), nullptr);
    const QpProblem qp = generateProblem(Domain::Svm, 20, 11);
    ASSERT_EQ(session.solve(qp).status, SolveStatus::Solved);
    const SessionResult second = session.solve(withScaledCost(qp, 2.0));
    ASSERT_EQ(second.status, SolveStatus::Solved);
    EXPECT_TRUE(second.parametricReuse);
    EXPECT_EQ(session.stats().cacheHits, 0);
    EXPECT_EQ(session.stats().cacheMisses, 0);
}

TEST(SolverSession, InvalidProblemLeavesSessionStateUntouched)
{
    auto cache = std::make_shared<CustomizationCache>(8);
    SolverSession session(deviceConfig(), cache);
    const QpProblem qp = generateProblem(Domain::Control, 25, 13);
    ASSERT_EQ(session.solve(qp).status, SolveStatus::Solved);

    QpProblem broken = qp;
    broken.l[0] = 1.0;
    broken.u[0] = -1.0;  // l > u
    const SessionResult bad = session.solve(broken);
    EXPECT_EQ(bad.status, SolveStatus::InvalidProblem);
    EXPECT_TRUE(
        bad.validation.has(ValidationCode::InfeasibleBounds));
    EXPECT_EQ(session.stats().invalidRequests, 1);

    // The live solver survived: the next good request still takes the
    // parametric fast path with warm start.
    const SessionResult good = session.solve(withScaledCost(qp, 0.9));
    ASSERT_EQ(good.status, SolveStatus::Solved);
    EXPECT_TRUE(good.parametricReuse);
    EXPECT_TRUE(good.warmStarted);
}

TEST(SolverSession, HostEngineSolvesAndTakesParametricPath)
{
    SessionConfig config;
    config.engine = SessionEngine::Host;
    config.osqp.backend = KktBackend::IndirectPcg;
    SolverSession session(config, nullptr);
    const QpProblem qp = generateProblem(Domain::Lasso, 30, 17);

    const SessionResult result = session.solve(qp);
    ASSERT_EQ(result.status, SolveStatus::Solved);

    const SessionResult repeat = session.solve(withScaledCost(qp, 2.0));
    ASSERT_EQ(repeat.status, SolveStatus::Solved);
    EXPECT_TRUE(repeat.parametricReuse);
    EXPECT_TRUE(repeat.warmStarted);
}

/**
 * Session under `config` at control size `size`: a value-only
 * q/bounds request takes the parametric route and lands bitwise on
 * what a standalone engine (RsqpSolver for Device, makeBackend for
 * Host) reaches with the same updates and warm start; telemetry names
 * that engine.
 */
void
expectParametricMatchesStandalone(const SessionConfig& config, Index size)
{
    SolverSession session(config, nullptr);

    const QpProblem qp = generateProblem(Domain::Control, size, 5);
    QpProblem next = withScaledCost(qp, 1.1);
    for (Vector* bound : {&next.l, &next.u})
        for (Real& v : *bound)
            if (std::abs(v) < kInf)
                v *= 1.05;

    std::unique_ptr<QpBackend> engine;
    BackendKind engine_kind = config.osqp.firstOrder.method;
    if (config.engine == SessionEngine::Device) {
        engine = std::make_unique<RsqpSolver>(qp, config.osqp,
                                              config.custom);
        engine_kind = BackendKind::Admm;
    } else {
        engine = makeBackend(qp, config.osqp);
        if (engine_kind == BackendKind::Auto)
            engine_kind = chooseBackend(qp);
    }
    ASSERT_EQ(engine->kind(), engine_kind);
    const OsqpResult first = engine->solve();
    engine->updateLinearCost(next.q);
    engine->updateBounds(next.l, next.u);
    ASSERT_TRUE(engine->warmStart(first.x, first.y));
    const OsqpResult expect = engine->solve();
    ASSERT_EQ(expect.info.status, SolveStatus::Solved);

    ASSERT_EQ(session.solve(qp).status, first.info.status);
    const SessionResult got = session.solve(next);
    EXPECT_EQ(got.telemetry.route, SolveRoute::Parametric);
    EXPECT_TRUE(got.warmStarted);
    EXPECT_EQ(got.telemetry.backend, backendKindName(engine_kind));
    ASSERT_EQ(got.status, expect.info.status);
    EXPECT_EQ(got.iterations, expect.info.iterations);
    EXPECT_EQ(got.deviceSeconds, expect.deviceSeconds);
    ASSERT_EQ(got.x.size(), expect.x.size());
    ASSERT_EQ(got.y.size(), expect.y.size());
    for (std::size_t i = 0; i < expect.x.size(); ++i)
        ASSERT_EQ(got.x[i], expect.x[i]) << "x[" << i << "]";
    for (std::size_t i = 0; i < expect.y.size(); ++i)
        ASSERT_EQ(got.y[i], expect.y[i]) << "y[" << i << "]";
}

SessionConfig
hostConfig(BackendKind method)
{
    SessionConfig config;
    config.engine = SessionEngine::Host;
    config.osqp.firstOrder.method = method;
    return config;
}

TEST(SolverSession, DeviceParametricMatchesStandaloneEngine)
{
    for (Index size : {4, 20}) {
        SCOPED_TRACE(size);
        expectParametricMatchesStandalone(deviceConfig(), size);
    }
}

TEST(SolverSession, HostPdhgParametricMatchesStandaloneEngine)
{
    for (Index size : {4, 40}) {
        SCOPED_TRACE(size);
        expectParametricMatchesStandalone(hostConfig(BackendKind::Pdhg),
                                          size);
    }
}

TEST(SolverSession, HostAutoParametricMatchesSelectedEngine)
{
    // Control at size 4 is small enough that Auto picks ADMM; at 40
    // it is tall with mixed constraints and Auto picks PDHG.
    ASSERT_EQ(chooseBackend(generateProblem(Domain::Control, 4, 5)),
              BackendKind::Admm);
    ASSERT_EQ(chooseBackend(generateProblem(Domain::Control, 40, 5)),
              BackendKind::Pdhg);
    for (Index size : {4, 40}) {
        SCOPED_TRACE(size);
        expectParametricMatchesStandalone(hostConfig(BackendKind::Auto),
                                          size);
    }
}

TEST(SolverSession, ResetForgetsStructureAndWarmState)
{
    auto cache = std::make_shared<CustomizationCache>(8);
    SolverSession session(deviceConfig(), cache);
    const QpProblem qp = generateProblem(Domain::Eqqp, 20, 19);
    ASSERT_EQ(session.solve(qp).status, SolveStatus::Solved);

    session.reset();
    const SessionResult after = session.solve(qp);
    ASSERT_EQ(after.status, SolveStatus::Solved);
    EXPECT_FALSE(after.parametricReuse);
    EXPECT_FALSE(after.warmStarted);
    EXPECT_TRUE(after.cacheHit);  // the shared cache survives reset
}

} // namespace
} // namespace rsqp
