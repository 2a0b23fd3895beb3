/**
 * @file
 * Chaos benchmark: the solver fleet under a seeded whole-core fault
 * schedule. Runs the same mixed-structure workload twice through a
 * multi-core SolverService — once undisturbed, once with
 * FleetFaultInjector::standardSchedule (one core killed mid-stream,
 * one core hung past the stall watchdog) — and reports what the fault
 * domain kept:
 *
 *   goodput retention   solved-in-chaos / solved-undisturbed
 *   lost jobs           submitted minus resolved (must be zero: every
 *                       admitted job resolves exactly once)
 *   bitwise equal       every chaos-run solution, failed-over or not,
 *                       matches the undisturbed run bit for bit
 *   failover latency    mean queue wait of the jobs that were pulled
 *                       off a failed core and re-run
 *
 * The exit code doubles as the CI gate: zero lost jobs, bitwise
 * equality, both scheduled faults delivered, and goodput retention of
 * at least 90%.
 *
 * Flags:
 *   --quick       smaller workload (CI smoke)
 *   --json        JSON object on stdout (machine-readable artifact)
 *   --seed=N      fault-schedule and generator seed (default 0)
 *   --cores=N     fleet size (default 4)
 *   --requests=N  requests per session (default 6, quick 4)
 */

#include <algorithm>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "rsqp_api.hpp"

namespace
{

using namespace rsqp;

struct Options
{
    bool quick = false;
    bool json = false;
    std::uint64_t seed = 0;
    unsigned cores = 4;
    Index requestsPerSession = 6;
};

Options
parseOptions(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            options.quick = true;
            options.requestsPerSession = 4;
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg.rfind("--seed=", 0) == 0) {
            options.seed =
                static_cast<std::uint64_t>(std::stoull(arg.substr(7)));
        } else if (arg.rfind("--cores=", 0) == 0) {
            options.cores =
                static_cast<unsigned>(std::stoul(arg.substr(8)));
        } else if (arg.rfind("--requests=", 0) == 0) {
            options.requestsPerSession =
                static_cast<Index>(std::stoi(arg.substr(11)));
        } else {
            std::cerr << "unknown flag: " << arg << "\n"
                      << "flags: --quick --json --seed=N --cores=N "
                         "--requests=N\n";
            std::exit(2);
        }
    }
    return options;
}

/** Same structure, new values: request r of one session's stream. */
QpProblem
perturbValues(const QpProblem& base, Index request)
{
    QpProblem out = base;
    const Real shift = 0.05 * static_cast<Real>(request + 1);
    for (Real& v : out.q)
        v = v * (1.0 + 0.01 * static_cast<Real>(request)) + shift;
    return out;
}

struct RunOutcome
{
    std::vector<SessionResult> results; ///< submission order
    double wallSeconds = 0.0;
    Count solved = 0;
    Count resolved = 0; ///< futures that came back with any status
    ServiceStats stats;
    FleetStats fleet;
};

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parseOptions(argc, argv);

    SessionConfig sessionConfig;
    sessionConfig.osqp.maxIter = options.quick ? 250 : 1000;
    sessionConfig.custom.c = options.quick ? 16 : 64;

    // Mixed workload: every suite domain at a couple of sizes, one
    // session per structure, each session re-solving its structure
    // with fresh values (the parametric serving pattern).
    struct SizeRange
    {
        Index base;
        Index step;
    };
    auto sizeRange = [](Domain domain) -> SizeRange {
        switch (domain) {
        case Domain::Control: return {3, 2};
        case Domain::Huber: return {16, 8};
        case Domain::Lasso: return {40, 20};
        case Domain::Portfolio: return {40, 20};
        case Domain::Svm: return {40, 20};
        case Domain::Eqqp: return {80, 40};
        }
        return {20, 8};
    };
    const Index sizesPerDomain = options.quick ? 1 : 2;
    std::vector<QpProblem> bases;
    for (Domain domain : allDomains())
        for (Index k = 0; k < sizesPerDomain; ++k) {
            const SizeRange range = sizeRange(domain);
            bases.push_back(generateProblem(
                domain, range.base + range.step * k,
                options.seed + bases.size()));
        }
    const Index sessionCount = static_cast<Index>(bases.size());
    const Index requestCount =
        sessionCount * options.requestsPerSession;

    auto runWorkload =
        [&](std::shared_ptr<FleetFaultInjector> injector) {
            ServiceConfig serviceConfig;
            serviceConfig.maxQueueDepth =
                static_cast<std::size_t>(requestCount) + 8;
            serviceConfig.execution.numThreads = 1;
            serviceConfig.fleet.coreCount = options.cores;
            serviceConfig.fleet.policy = PlacementPolicy::Affinity;
            serviceConfig.fleet.slotsPerCore = 1;
            serviceConfig.fleet.affinityQueueBound = 2;
            // Modeled device times are milliseconds; a millisecond-
            // scale ladder readmits within the run.
            serviceConfig.fleet.faultDomain.backoffBaseSeconds = 1e-4;
            serviceConfig.fleet.faultInjector = std::move(injector);
            SolverService service(serviceConfig);

            std::vector<SessionId> ids;
            for (Index s = 0; s < sessionCount; ++s)
                ids.push_back(service.openSession(sessionConfig));

            Timer timer;
            std::vector<std::future<SessionResult>> futures;
            for (Index r = 0; r < options.requestsPerSession; ++r)
                for (Index s = 0; s < sessionCount; ++s)
                    futures.push_back(service.submit(
                        ids[static_cast<std::size_t>(s)],
                        perturbValues(
                            bases[static_cast<std::size_t>(s)], r)));

            RunOutcome outcome;
            for (std::future<SessionResult>& future : futures) {
                outcome.results.push_back(future.get());
                ++outcome.resolved;
                if (outcome.results.back().status ==
                    SolveStatus::Solved)
                    ++outcome.solved;
            }
            outcome.wallSeconds = timer.seconds();
            service.waitIdle();
            outcome.stats = service.stats();
            outcome.fleet = service.fleetStats();
            return outcome;
        };

    const RunOutcome baseline = runWorkload(nullptr);
    auto injector = std::make_shared<FleetFaultInjector>(
        FleetFaultInjector::standardSchedule(
            options.seed, static_cast<Count>(requestCount)));
    const RunOutcome chaos = runWorkload(injector);

    // Comparison. Session streams are deterministic and a fault only
    // ever fires before a job touches its session, so every chaos
    // solution must match the undisturbed run bit for bit.
    bool bitwiseEqual =
        baseline.results.size() == chaos.results.size();
    Count failedOverJobs = 0;
    double failoverWaitSum = 0.0;
    for (std::size_t i = 0;
         bitwiseEqual && i < chaos.results.size(); ++i) {
        const SessionResult& a = baseline.results[i];
        const SessionResult& b = chaos.results[i];
        if (b.failovers > 0) {
            ++failedOverJobs;
            failoverWaitSum += b.telemetry.queueWaitSeconds;
        }
        if (a.status != b.status || a.iterations != b.iterations ||
            a.x != b.x || a.y != b.y)
            bitwiseEqual = false;
    }
    const double failoverLatency =
        failedOverJobs > 0
            ? failoverWaitSum / static_cast<double>(failedOverJobs)
            : 0.0;
    const double goodputRetention =
        baseline.solved > 0
            ? static_cast<double>(chaos.solved) /
                  static_cast<double>(baseline.solved)
            : 0.0;
    const Count lostJobs =
        static_cast<Count>(requestCount) - chaos.resolved;
    const Count accounted = chaos.stats.completed +
                            chaos.stats.rejected +
                            chaos.stats.expired +
                            chaos.stats.shutdownDrained;
    const Count faultsDelivered = injector->killsDelivered() +
                                  injector->hangsDelivered() +
                                  injector->degradesDelivered();

    if (options.json) {
        auto emitRun = [&](const char* name, const RunOutcome& run) {
            std::cout << "  \"" << name << "\": {\"wall_seconds\": "
                      << formatFixed(run.wallSeconds, 6)
                      << ", \"solved\": " << run.solved
                      << ", \"resolved\": " << run.resolved
                      << ", \"completed\": " << run.stats.completed
                      << ", \"rejected\": " << run.stats.rejected
                      << ", \"expired\": " << run.stats.expired
                      << ", \"failovers\": " << run.stats.failovers
                      << ", \"quarantines\": "
                      << run.stats.quarantines
                      << ", \"readmissions\": "
                      << run.stats.readmissions << ", \"probes\": "
                      << run.fleet.probes
                      << ", \"partition_invalidations\": "
                      << run.fleet.partitionInvalidations
                      << ", \"virtual_seconds\": "
                      << formatFixed(run.fleet.virtualSeconds, 6)
                      << "}";
        };
        std::cout << "{\n  \"seed\": " << options.seed
                  << ",\n  \"cores\": " << options.cores
                  << ",\n  \"workload\": {\"structures\": "
                  << sessionCount
                  << ", \"requests\": " << requestCount << "},\n"
                  << "  \"schedule\": {\"kills\": "
                  << injector->killsDelivered() << ", \"hangs\": "
                  << injector->hangsDelivered() << ", \"degrades\": "
                  << injector->degradesDelivered() << "},\n";
        emitRun("baseline", baseline);
        std::cout << ",\n";
        emitRun("chaos", chaos);
        std::cout << ",\n  \"comparison\": {\"goodput_retention\": "
                  << formatFixed(goodputRetention, 4)
                  << ", \"bitwise_equal\": "
                  << (bitwiseEqual ? "true" : "false")
                  << ", \"lost_jobs\": " << lostJobs
                  << ", \"accounted\": " << accounted
                  << ", \"failed_over_jobs\": " << failedOverJobs
                  << ", \"failover_latency_seconds\": "
                  << formatFixed(failoverLatency, 6) << "}\n}\n";
    } else {
        std::cout << "# chaos: " << sessionCount << " structures, "
                  << requestCount << " requests, " << options.cores
                  << " cores, seed " << options.seed << "\n";
        TextTable table({"run", "wall_s", "solved", "failovers",
                         "quarantines", "readmissions"});
        table.addRow({"baseline", formatFixed(baseline.wallSeconds, 3),
                      std::to_string(baseline.solved),
                      std::to_string(baseline.stats.failovers),
                      std::to_string(baseline.stats.quarantines),
                      std::to_string(baseline.stats.readmissions)});
        table.addRow({"chaos", formatFixed(chaos.wallSeconds, 3),
                      std::to_string(chaos.solved),
                      std::to_string(chaos.stats.failovers),
                      std::to_string(chaos.stats.quarantines),
                      std::to_string(chaos.stats.readmissions)});
        table.print(std::cout);
        std::cout << "goodput_retention " << goodputRetention
                  << "  bitwise_equal "
                  << (bitwiseEqual ? "yes" : "no") << "  lost_jobs "
                  << lostJobs << "  failover_latency_s "
                  << formatFixed(failoverLatency, 6) << "\n";
    }

    // Exit gates (what chaos-smoke enforces in CI): nothing lost,
    // nothing double-counted, both scheduled faults delivered,
    // bitwise-identical results, and >= 90% goodput retention.
    int failures = 0;
    if (lostJobs != 0)
        ++failures;
    if (accounted != chaos.stats.submitted)
        ++failures;
    if (faultsDelivered != 2)
        ++failures;
    if (!bitwiseEqual)
        ++failures;
    if (goodputRetention < 0.9)
        ++failures;
    return failures;
}
