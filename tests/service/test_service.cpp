/**
 * @file
 * SolverService front-end tests. The ServiceQueue suite is run under
 * TSan in CI: it drives many concurrent sessions through the admission
 * queue and asserts deterministic per-session results plus clean
 * overflow / deadline / close statuses.
 */

#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "problems/suite.hpp"
#include "service/service.hpp"

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

QpProblem
withScaledCost(const QpProblem& qp, Real factor)
{
    QpProblem out = qp;
    for (Real& v : out.q)
        v *= factor;
    return out;
}

TEST(ServiceQueue, SingleSessionRoundTrip)
{
    SolverService service;
    const SessionId id = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Control, 25, 3);

    const SessionResult result = service.solve(id, qp);
    ASSERT_EQ(result.status, SolveStatus::Solved);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 1);
    EXPECT_EQ(stats.completed, 1);
    EXPECT_EQ(stats.rejected, 0);
    EXPECT_EQ(stats.openSessions, 1u);
    EXPECT_EQ(service.sessionStats(id).solves, 1);
}

TEST(ServiceQueue, UnknownSessionIsRejected)
{
    SolverService service;
    const QpProblem qp = generateProblem(Domain::Lasso, 20, 5);
    const SessionResult result = service.solve(9999, qp);
    EXPECT_EQ(result.status, SolveStatus::Rejected);
    EXPECT_EQ(service.stats().rejected, 1);
}

TEST(ServiceQueue, OverflowYieldsRejectedNotBlocking)
{
    ServiceConfig config;
    config.maxQueueDepth = 2;
    config.maxConcurrency = 1;
    SolverService service(config);
    const SessionId id = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Huber, 25, 7);

    // Burst more requests than depth + concurrency can hold; the
    // excess must come back Rejected immediately, everything admitted
    // must complete.
    std::vector<std::future<SessionResult>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(service.submit(id, qp));
    Count solved = 0;
    Count rejected = 0;
    for (std::future<SessionResult>& future : futures) {
        const SessionResult result = future.get();
        if (result.status == SolveStatus::Rejected)
            ++rejected;
        else if (result.status == SolveStatus::Solved)
            ++solved;
    }
    EXPECT_GT(rejected, 0);
    EXPECT_GT(solved, 0);
    EXPECT_EQ(solved + rejected, 8);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.rejected, rejected);
    EXPECT_EQ(stats.completed, solved);
    EXPECT_LE(stats.peakQueueDepth, 2u);
}

TEST(ServiceQueue, QueuedDeadlineExpiresToTimeLimit)
{
    ServiceConfig config;
    config.maxConcurrency = 1;
    SolverService service(config);
    const SessionId id = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Portfolio, 30, 9);

    // Fill the single execution slot, then enqueue requests whose
    // deadline cannot survive the wait behind the running solves.
    std::vector<std::future<SessionResult>> head;
    for (int i = 0; i < 3; ++i)
        head.push_back(service.submit(id, qp));
    SubmitOptions doomedOptions;
    doomedOptions.deadlineSeconds = 1e-9;
    std::future<SessionResult> doomed =
        service.submit(id, qp, doomedOptions);

    const SessionResult late = doomed.get();
    EXPECT_EQ(late.status, SolveStatus::TimeLimitReached);
    EXPECT_TRUE(late.x.empty());
    for (std::future<SessionResult>& future : head)
        EXPECT_EQ(future.get().status, SolveStatus::Solved);
    EXPECT_EQ(service.stats().expired, 1);

    // The expired request never touched the session: the next solve
    // still rides the parametric fast path of the earlier structure.
    const SessionResult next = service.solve(id, qp);
    ASSERT_EQ(next.status, SolveStatus::Solved);
    EXPECT_TRUE(next.parametricReuse);
}

TEST(ServiceQueue, CloseSessionRejectsQueuedWork)
{
    ServiceConfig config;
    config.maxConcurrency = 1;
    SolverService service(config);
    const SessionId keep = service.openSession(deviceConfig());
    const SessionId close = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Svm, 25, 11);

    // Keep the single slot busy so the to-be-closed session's work is
    // still queued when the close lands.
    std::vector<std::future<SessionResult>> busy;
    for (int i = 0; i < 2; ++i)
        busy.push_back(service.submit(keep, qp));
    std::vector<std::future<SessionResult>> orphaned;
    for (int i = 0; i < 3; ++i)
        orphaned.push_back(service.submit(close, qp));
    service.closeSession(close);

    for (std::future<SessionResult>& future : busy)
        EXPECT_EQ(future.get().status, SolveStatus::Solved);
    Count rejected = 0;
    for (std::future<SessionResult>& future : orphaned)
        if (future.get().status == SolveStatus::Rejected)
            ++rejected;
    // Everything not already running when the session closed bounces.
    EXPECT_GE(rejected, 2);
    service.waitIdle();
    EXPECT_EQ(service.stats().openSessions, 1u);
    EXPECT_EQ(service.solve(close, qp).status, SolveStatus::Rejected);
}

TEST(ServiceQueue, ConcurrentSessionsAreDeterministic)
{
    // N sessions race through the service; every session's result
    // stream must be identical to a serial single-session run of the
    // same request sequence — scheduling must not leak into numerics.
    // A small instance keeps the 22 Device solves cheap under TSan.
    const QpProblem qp = generateProblem(Domain::Control, 4, 21);
    const int kSessions = 6;
    const int kRepeats = 3;

    // Serial reference: one isolated session, fresh cache.
    std::vector<SessionResult> reference;
    {
        SolverSession session(deviceConfig(),
                              std::make_shared<CustomizationCache>(8));
        for (int r = 0; r < kRepeats; ++r)
            reference.push_back(
                session.solve(withScaledCost(qp, 1.0 + 0.1 * r)));
    }

    SolverService service;
    // Pre-warm the shared cache so the burst below is all hits: racing
    // sessions on an empty cache would each miss (correct, but the
    // miss count would depend on scheduling).
    {
        const SessionId warmup = service.openSession(deviceConfig());
        ASSERT_EQ(service.solve(warmup, qp).status,
                  SolveStatus::Solved);
        service.closeSession(warmup);
    }
    std::vector<SessionId> ids;
    for (int s = 0; s < kSessions; ++s)
        ids.push_back(service.openSession(deviceConfig()));

    // All sessions' requests in flight at once, interleaved.
    std::vector<std::vector<std::future<SessionResult>>> futures(
        static_cast<std::size_t>(kSessions));
    for (int r = 0; r < kRepeats; ++r)
        for (int s = 0; s < kSessions; ++s)
            futures[static_cast<std::size_t>(s)].push_back(
                service.submit(ids[static_cast<std::size_t>(s)],
                               withScaledCost(qp, 1.0 + 0.1 * r)));

    for (int s = 0; s < kSessions; ++s)
        for (int r = 0; r < kRepeats; ++r) {
            const SessionResult result =
                futures[static_cast<std::size_t>(s)]
                       [static_cast<std::size_t>(r)]
                           .get();
            ASSERT_EQ(result.status, reference[r].status)
                << "session " << s << " request " << r;
            EXPECT_EQ(result.x, reference[r].x)
                << "session " << s << " request " << r;
            EXPECT_EQ(result.y, reference[r].y)
                << "session " << s << " request " << r;
            EXPECT_EQ(result.iterations, reference[r].iterations)
                << "session " << s << " request " << r;
        }

    // The structure was customized exactly once service-wide (the
    // warm-up miss); every burst rebuild hit the cache.
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cache.misses, 1);
    EXPECT_EQ(stats.cache.hits, static_cast<Count>(kSessions));
    EXPECT_EQ(stats.cache.size, 1u);
    EXPECT_EQ(stats.completed,
              static_cast<Count>(kSessions * kRepeats + 1));
}

TEST(ServiceQueue, StatsSnapshotsAreConsistentUnderLoad)
{
    SolverService service;
    const QpProblem qp = generateProblem(Domain::Eqqp, 25, 23);
    const SessionId a = service.openSession(deviceConfig());
    const SessionId b = service.openSession(deviceConfig());

    std::vector<std::future<SessionResult>> futures;
    for (int i = 0; i < 4; ++i) {
        futures.push_back(service.submit(a, qp));
        futures.push_back(service.submit(b, qp));
        // Interleaved polling exercises the snapshot path while
        // workers are mid-solve (the TSan target).
        (void)service.stats();
        (void)service.sessionStats(a);
    }
    for (std::future<SessionResult>& future : futures)
        EXPECT_EQ(future.get().status, SolveStatus::Solved);
    service.waitIdle();

    EXPECT_EQ(service.sessionStats(a).solves, 4);
    EXPECT_EQ(service.sessionStats(b).solves, 4);
    EXPECT_EQ(service.stats().completed, 8);
}

TEST(ServiceQueue, DestructorShedsQueuedWorkAsShuttingDown)
{
    // Shutdown contract: whatever already launched finishes with its
    // real status, whatever was still queued resolves ShuttingDown
    // (not Rejected — the client did nothing wrong), and no future is
    // ever abandoned.
    const QpProblem qp = generateProblem(Domain::Lasso, 25, 29);
    std::vector<std::future<SessionResult>> futures;
    {
        SolverService service;
        const SessionId id = service.openSession(deviceConfig());
        for (int i = 0; i < 5; ++i)
            futures.push_back(service.submit(id, qp));
        // The service dies here with requests still in flight.
    }
    int solvedCount = 0;
    int shedCount = 0;
    for (std::future<SessionResult>& future : futures) {
        const SolveStatus status = future.get().status;
        EXPECT_TRUE(status == SolveStatus::Solved ||
                    status == SolveStatus::ShuttingDown);
        if (status == SolveStatus::Solved)
            ++solvedCount;
        else
            ++shedCount;
    }
    // The head request launched at submit time; it must have run.
    EXPECT_GE(solvedCount, 1);
    EXPECT_EQ(solvedCount + shedCount, 5);
}

} // namespace
} // namespace rsqp
