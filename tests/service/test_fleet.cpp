/**
 * @file
 * Fleet and placement tests. The Placement suite pins the scheduler's
 * determinism contract (identical fingerprints route to the same core
 * across scheduler instances — and therefore across service restarts
 * — with least-loaded fallback only past the queue bound). The Fleet
 * suite drives SolverService with multi-core FleetConfigs and is run
 * under TSan in CI: concurrent submits across cores must stay
 * race-free and bitwise-deterministic.
 */

#include <future>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "problems/suite.hpp"
#include "service/service.hpp"
#include "tests/service/slot_gate.hpp"

namespace rsqp
{
namespace
{

using test::SlotGate;

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

std::vector<CoreLoad>
idleLoads(std::size_t cores)
{
    return std::vector<CoreLoad>(cores);
}

TEST(Placement, PreferredCoreIsPureFunctionOfFingerprint)
{
    // Two independently generated (but identical) problems and two
    // scheduler instances: the affinity target must agree — this is
    // what makes placement stable across service restarts.
    const StructureFingerprint fpA =
        fingerprintStructure(generateProblem(Domain::Control, 30, 5));
    const StructureFingerprint fpB =
        fingerprintStructure(generateProblem(Domain::Control, 30, 5));
    EXPECT_EQ(fpA.hi, fpB.hi);
    EXPECT_EQ(fpA.lo, fpB.lo);
    for (std::size_t cores : {2u, 4u, 8u, 56u}) {
        EXPECT_EQ(PlacementScheduler::preferredCore(fpA, cores),
                  PlacementScheduler::preferredCore(fpB, cores));
    }

    PlacementScheduler first(4, 4);
    PlacementScheduler second(4, 4);
    EXPECT_EQ(first.place(fpA, idleLoads(4)),
              second.place(fpB, idleLoads(4)));
}

TEST(Placement, DistinctStructuresGetIndependentTargets)
{
    // Not a balance proof, but the avalanche must at least reach more
    // than one core across the six benchmark domains.
    std::set<std::size_t> cores;
    for (Domain domain : allDomains()) {
        const StructureFingerprint fp =
            fingerprintStructure(generateProblem(domain, 25, 1));
        cores.insert(PlacementScheduler::preferredCore(fp, 8));
    }
    EXPECT_GT(cores.size(), 1u);
}

TEST(Placement, AffinityHonorsPreferredUpToQueueBound)
{
    const StructureFingerprint fp =
        fingerprintStructure(generateProblem(Domain::Lasso, 30, 2));
    const std::size_t preferred =
        PlacementScheduler::preferredCore(fp, 4);

    PlacementScheduler scheduler(4, 2);
    std::vector<CoreLoad> loads = idleLoads(4);
    loads[preferred].queuedSessions = 2;  // == bound: still preferred
    EXPECT_EQ(scheduler.place(fp, loads), preferred);
}

TEST(Placement, AffinityFallsBackToLeastLoadedPastBound)
{
    const StructureFingerprint fp =
        fingerprintStructure(generateProblem(Domain::Lasso, 30, 2));
    const std::size_t preferred =
        PlacementScheduler::preferredCore(fp, 4);

    PlacementScheduler scheduler(4, 2);
    std::vector<CoreLoad> loads = idleLoads(4);
    loads[preferred].queuedSessions = 3;  // > bound: spill
    for (std::size_t core = 0; core < 4; ++core)
        if (core != preferred)
            loads[core].queuedSessions = 1;
    const std::size_t emptiest = preferred == 1 ? 2 : 1;
    loads[emptiest].queuedSessions = 0;
    EXPECT_EQ(scheduler.place(fp, loads), emptiest);
}

TEST(Placement, NonCacheableFingerprintHasNoAffinity)
{
    StructureFingerprint fp =
        fingerprintStructure(generateProblem(Domain::Huber, 30, 3));
    fp.cacheable = false;

    PlacementScheduler scheduler(4, 4);
    std::vector<CoreLoad> loads = idleLoads(4);
    loads[0].queuedSessions = 1;
    loads[1].queuedSessions = 1;
    loads[2].queuedSessions = 1;
    EXPECT_EQ(scheduler.place(fp, loads), 3u);  // least loaded
}

TEST(Placement, LeastLoadedCountsRunningStreamsAndBreaksTiesLow)
{
    // A non-cacheable fingerprint has no affinity target, so it
    // exercises the least-loaded choice the affinity spill uses.
    PlacementScheduler scheduler(3, 4);
    StructureFingerprint fp =
        fingerprintStructure(generateProblem(Domain::Svm, 25, 1));
    fp.cacheable = false;

    std::vector<CoreLoad> loads = idleLoads(3);
    loads[0].queuedSessions = 1;
    loads[1].runningStreams = 1;
    EXPECT_EQ(scheduler.place(fp, loads), 2u);

    loads[2].queuedSessions = 1;  // all tied at 1 -> lowest index
    EXPECT_EQ(scheduler.place(fp, loads), 0u);
}

TEST(Placement, SingleCoreAlwaysPlacesZero)
{
    PlacementScheduler scheduler(1, 4);
    const StructureFingerprint fp =
        fingerprintStructure(generateProblem(Domain::Control, 25, 9));
    EXPECT_EQ(scheduler.place(fp, idleLoads(1)), 0u);
}

ServiceConfig
fleetConfig(unsigned cores)
{
    ServiceConfig config;
    config.maxQueueDepth = 1024;
    config.fleet.coreCount = cores;
    return config;
}

/** Per-core job counts after draining `workload` through a service. */
std::vector<Count>
jobDistribution(const ServiceConfig& config,
                const std::vector<QpProblem>& workload)
{
    SolverService service(config);
    std::vector<SessionId> ids;
    for (std::size_t i = 0; i < workload.size(); ++i)
        ids.push_back(service.openSession(deviceConfig()));
    std::vector<std::future<SessionResult>> futures;
    for (std::size_t i = 0; i < workload.size(); ++i)
        futures.push_back(service.submit(ids[i], workload[i]));
    for (auto& future : futures)
        EXPECT_EQ(future.get().status, SolveStatus::Solved);
    service.waitIdle();
    std::vector<Count> jobs;
    for (const CoreStats& core : service.fleetStats().cores)
        jobs.push_back(core.jobs);
    return jobs;
}

TEST(Fleet, SameStructureLandsOnOneCore)
{
    // Placement reads only the structure; a small instance keeps the
    // three Device solves cheap under TSan.
    const QpProblem qp = generateProblem(Domain::Control, 4, 3);
    std::vector<QpProblem> workload;
    for (int i = 0; i < 3; ++i)
        workload.push_back(withScaledCost(qp, 1.0 + 0.1 * i));

    const std::vector<Count> jobs = jobDistribution(fleetConfig(4), workload);
    Count total = 0;
    Count busiest = 0;
    for (Count count : jobs) {
        total += count;
        busiest = std::max(busiest, count);
    }
    EXPECT_EQ(total, 3);
    EXPECT_EQ(busiest, 3);  // all three on the affinity core
}

TEST(Fleet, PlacementIsDeterministicAcrossRestarts)
{
    // Two independent services (fresh registries, fresh schedulers)
    // given the same mixed-structure workload must produce the same
    // per-core job distribution — restart-stable affinity.
    std::vector<QpProblem> workload;
    for (Domain domain : allDomains())
        workload.push_back(generateProblem(domain, 25, 7));

    const ServiceConfig config = fleetConfig(4);
    EXPECT_EQ(jobDistribution(config, workload),
              jobDistribution(config, workload));
}

TEST(Fleet, CachePartitionHitsOnTheAffinityCore)
{
    SolverService service(fleetConfig(4));
    const QpProblem qp = generateProblem(Domain::Lasso, 25, 11);

    const SessionId first = service.openSession(deviceConfig());
    ASSERT_EQ(service.solve(first, qp).status, SolveStatus::Solved);

    // A different session, same structure: must thaw the artifact out
    // of the partition owned by the core the miss ran on.
    const SessionId second = service.openSession(deviceConfig());
    const SessionResult warm =
        service.solve(second, withScaledCost(qp, 2.0));
    EXPECT_EQ(warm.status, SolveStatus::Solved);
    EXPECT_TRUE(warm.cacheHit);

    int coresWithTraffic = 0;
    for (const CoreStats& core : service.fleetStats().cores) {
        if (core.cache.misses > 0 || core.cache.hits > 0) {
            ++coresWithTraffic;
            EXPECT_EQ(core.cache.misses, 1);
            EXPECT_EQ(core.cache.hits, 1);
        }
    }
    EXPECT_EQ(coresWithTraffic, 1);
}

TEST(Fleet, SmallJobsFuseIntoInterleavedStreams)
{
    ServiceConfig config = fleetConfig(2);
    config.fleet.interleaveWidth = 4;
    config.fleet.smallJobThreshold = 4096;  // everything is small
    SolverService service(config);

    const QpProblem qp = generateProblem(Domain::Control, 4, 13);
    std::vector<SessionId> ids;
    for (int i = 0; i < 16; ++i)
        ids.push_back(service.openSession(deviceConfig()));
    // The first request holds its core's only slot, so the requests
    // affinity routes behind it queue up before any of them runs.
    SlotGate gate(service, ids[0], qp);
    std::vector<std::future<SessionResult>> futures;
    for (std::size_t i = 1; i < ids.size(); ++i)
        futures.push_back(service.submit(
            ids[i], withScaledCost(qp, 1.0 + 0.01 * double(i))));
    gate.release();
    EXPECT_EQ(gate.status(), SolveStatus::Solved);
    for (auto& future : futures)
        EXPECT_EQ(future.get().status, SolveStatus::Solved);
    service.waitIdle();

    Count jobs = 0;
    Count streams = 0;
    Count interleaved = 0;
    for (const CoreStats& core : service.fleetStats().cores) {
        jobs += core.jobs;
        streams += core.streams;
        interleaved += core.interleavedJobs;
    }
    EXPECT_EQ(jobs, 16);
    // 16 sessions over 2 single-slot cores: the backlog must have
    // fused at least once, so strictly fewer streams than jobs.
    EXPECT_LT(streams, jobs);
    EXPECT_GE(interleaved, 2);
}

TEST(Fleet, ResultsAreBitwiseIdenticalAcrossCoreCounts)
{
    std::vector<QpProblem> workload;
    for (Domain domain : allDomains())
        workload.push_back(generateProblem(domain, 25, 17));

    auto run = [&](unsigned cores) {
        SolverService service(fleetConfig(cores));
        std::vector<SessionResult> results;
        for (const QpProblem& qp : workload) {
            const SessionId id = service.openSession(deviceConfig());
            results.push_back(service.solve(id, qp));
        }
        return results;
    };

    const std::vector<SessionResult> single = run(1);
    const std::vector<SessionResult> fleet = run(4);
    ASSERT_EQ(single.size(), fleet.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
        EXPECT_EQ(single[i].status, fleet[i].status);
        EXPECT_EQ(single[i].iterations, fleet[i].iterations);
        EXPECT_EQ(single[i].x, fleet[i].x) << "problem " << i;
        EXPECT_EQ(single[i].y, fleet[i].y) << "problem " << i;
    }
}

TEST(Fleet, MetricsExposePerCoreSeries)
{
    SolverService service(fleetConfig(4));
    const SessionId id = service.openSession(deviceConfig());
    ASSERT_EQ(service
                  .solve(id, generateProblem(Domain::Control, 25, 19))
                  .status,
              SolveStatus::Solved);
    // The stream's busy-time accounting lands when its run slot is
    // released, which the resolved future does not wait for.
    service.waitIdle();

    const std::string text = service.metricsText();
    EXPECT_NE(text.find("rsqp_fleet_cores 4"), std::string::npos);
    for (int core = 0; core < 4; ++core) {
        const std::string label =
            "{core=\"" + std::to_string(core) + "\"}";
        EXPECT_NE(
            text.find("rsqp_fleet_core_utilization_percent" + label),
            std::string::npos);
        EXPECT_NE(text.find("rsqp_fleet_core_jobs_total" + label),
                  std::string::npos);
        EXPECT_NE(text.find("rsqp_fleet_core_queue_depth" + label),
                  std::string::npos);
    }

    Count jobs = 0;
    double busy = 0.0;
    for (const CoreStats& core : service.fleetStats().cores) {
        jobs += core.jobs;
        busy += core.busySeconds;
    }
    EXPECT_EQ(jobs, 1);
    EXPECT_GT(busy, 0.0);
}

TEST(Fleet, SingleCoreDefaultMatchesLegacyService)
{
    SolverService service;  // default config: one core
    const FleetStats fleet = service.fleetStats();
    ASSERT_EQ(fleet.cores.size(), 1u);

    const SessionId id = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Huber, 25, 23);
    ASSERT_EQ(service.solve(id, qp).status, SolveStatus::Solved);

    // The legacy cache() handle is core 0's partition; service-level
    // aggregate stats must be the same numbers.
    const CustomizationCacheStats direct = service.cache()->stats();
    const CustomizationCacheStats aggregate = service.stats().cache;
    EXPECT_EQ(direct.hits, aggregate.hits);
    EXPECT_EQ(direct.misses, aggregate.misses);
    EXPECT_EQ(direct.size, aggregate.size);
}

TEST(Fleet, ClosingSessionWithQueuedWorkLeavesFleetConsistent)
{
    ServiceConfig config = fleetConfig(2);
    config.fleet.slotsPerCore = 1;
    SolverService service(config);
    const QpProblem qp = generateProblem(Domain::Control, 30, 29);

    const SessionId keep = service.openSession(deviceConfig());
    const SessionId drop = service.openSession(deviceConfig());
    std::vector<std::future<SessionResult>> futures;
    for (int i = 0; i < 3; ++i) {
        futures.push_back(service.submit(keep, qp));
        futures.push_back(service.submit(drop, qp));
    }
    service.closeSession(drop);  // queued work -> Rejected; ready-queue
                                 // entries for it become stale
    Count solved = 0;
    Count rejected = 0;
    for (auto& future : futures) {
        const SolveStatus status = future.get().status;
        if (status == SolveStatus::Solved)
            ++solved;
        else if (status == SolveStatus::Rejected)
            ++rejected;
    }
    EXPECT_EQ(solved + rejected, 6);
    EXPECT_GE(solved, 3);  // keep's jobs must all have solved
    service.waitIdle();
    EXPECT_EQ(service.stats().openSessions, 1u);
}

TEST(Fleet, ConcurrentMixedStructureSubmitsStayConsistent)
{
    // TSan target: four client threads race submits across a 4-core
    // fleet; every admitted request must resolve and the books must
    // balance.
    ServiceConfig config = fleetConfig(4);
    config.fleet.interleaveWidth = 2;
    config.fleet.smallJobThreshold = 4096;
    SolverService service(config);

    constexpr int kClients = 4;
    constexpr int kRequests = 6;
    std::vector<SessionId> ids;
    std::vector<QpProblem> problems;
    const std::vector<Domain>& domains = allDomains();
    for (int c = 0; c < kClients; ++c) {
        ids.push_back(service.openSession(deviceConfig()));
        problems.push_back(generateProblem(
            domains[static_cast<std::size_t>(c) % domains.size()], 25,
            31 + static_cast<std::uint64_t>(c)));
    }

    std::vector<std::thread> clients;
    std::vector<Count> solvedPerClient(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int r = 0; r < kRequests; ++r) {
                const SessionResult result = service.solve(
                    ids[static_cast<std::size_t>(c)],
                    withScaledCost(
                        problems[static_cast<std::size_t>(c)],
                        1.0 + 0.01 * r));
                if (result.status == SolveStatus::Solved)
                    ++solvedPerClient[static_cast<std::size_t>(c)];
            }
        });
    }
    for (std::thread& client : clients)
        client.join();
    service.waitIdle();

    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(solvedPerClient[static_cast<std::size_t>(c)],
                  kRequests);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, kClients * kRequests);
    Count fleetJobs = 0;
    for (const CoreStats& core : service.fleetStats().cores)
        fleetJobs += core.jobs;
    EXPECT_EQ(fleetJobs, kClients * kRequests);
}

} // namespace
} // namespace rsqp
