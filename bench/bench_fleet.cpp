/**
 * @file
 * Fleet scaling benchmark: throughput of the SolverService front-end
 * as the simulated device fleet grows from one solver core to many,
 * on a mixed-structure workload (every suite domain, several sizes,
 * many sessions in flight).
 *
 * Two scaling numbers per core count:
 *
 *   wall clock      host-side throughput (jobs/s). Meaningful on a
 *                   many-core host, but it measures thread-pool
 *                   contention on a loaded CI runner.
 *   modeled         simulated-device makespan: each core accumulates
 *                   the modeled on-device run time of the jobs placed
 *                   on it, and speedup = total device time / max core
 *                   device time. Deterministic (the simulated solves
 *                   are bitwise reproducible) and independent of host
 *                   load — this is what the CI gate checks.
 *
 * The modeled speedup is a direct measurement of placement quality:
 * it only approaches the core count when structure-affinity routing
 * plus least-loaded spill spread the work evenly.
 *
 * Flags:
 *   --quick        smaller workload (CI smoke)
 *   --json         JSON object on stdout (machine-readable artifact)
 *   --seed=N       generator seed offset (default 0)
 *   --cores=A,B,C  fleet sizes to sweep (default 1,2,4,8)
 *   --sessions=N   concurrent client sessions (default: one per
 *                  structure)
 *   --requests=N   requests per session (default 6, quick 4)
 *   --sizes=N      suite sizes per domain (default 3, quick 2)
 */

#include <algorithm>
#include <future>
#include <iostream>
#include <sstream>
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
    std::vector<unsigned> cores = {1, 2, 4, 8};
    Index sessions = 0;  ///< 0 = one per structure
    Index requestsPerSession = 6;
    Index sizesPerDomain = 3;
};

std::vector<unsigned>
parseCoreList(const std::string& list)
{
    std::vector<unsigned> cores;
    std::stringstream stream(list);
    std::string item;
    while (std::getline(stream, item, ','))
        if (!item.empty())
            cores.push_back(
                static_cast<unsigned>(std::stoul(item)));
    if (cores.empty()) {
        std::cerr << "empty --cores list\n";
        std::exit(2);
    }
    return cores;
}

Options
parseOptions(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            options.quick = true;
            options.requestsPerSession = 4;
            options.sizesPerDomain = 2;
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg.rfind("--seed=", 0) == 0) {
            options.seed =
                static_cast<std::uint64_t>(std::stoull(arg.substr(7)));
        } else if (arg.rfind("--cores=", 0) == 0) {
            options.cores = parseCoreList(arg.substr(8));
        } else if (arg.rfind("--sessions=", 0) == 0) {
            options.sessions =
                static_cast<Index>(std::stoi(arg.substr(11)));
        } else if (arg.rfind("--requests=", 0) == 0) {
            options.requestsPerSession =
                static_cast<Index>(std::stoi(arg.substr(11)));
        } else if (arg.rfind("--sizes=", 0) == 0) {
            options.sizesPerDomain =
                static_cast<Index>(std::stoi(arg.substr(8)));
        } else {
            std::cerr << "unknown flag: " << arg << "\n"
                      << "flags: --quick --json --seed=N --cores=A,B "
                         "--sessions=N --requests=N --sizes=N\n";
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

struct Run
{
    unsigned cores = 0;
    double wallSeconds = 0.0;
    double throughput = 0.0;       ///< completed jobs / wall second
    double wallSpeedup = 0.0;      ///< vs the sweep's first run
    double deviceSecondsTotal = 0.0;
    double makespanSeconds = 0.0;  ///< max per-core device time
    double modeledSpeedup = 0.0;   ///< total / makespan
    Count completed = 0;
    Count rejected = 0;
    Count interleavedJobs = 0;
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

    // The mixed workload: every domain at several small sizes, one
    // session per structure by default, each session solving its
    // structure repeatedly with fresh values (the parametric serving
    // pattern). Sizes stay small on purpose — the sweep measures how
    // many requests the fleet moves, not how big one solve can get.
    // Per-domain size parameters chosen so every structure's modeled
    // per-solve device time lands in the same few-millisecond band:
    // a scaling gate is meaningless when one structure's weight
    // dwarfs the rest (no placement can spread a single hot spot).
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
    std::vector<QpProblem> bases;
    std::size_t structureCount = 0;
    for (Domain domain : allDomains())
        for (Index k = 0; k < options.sizesPerDomain; ++k) {
            const SizeRange range = sizeRange(domain);
            bases.push_back(generateProblem(
                domain, range.base + range.step * k,
                options.seed + structureCount));
            ++structureCount;
        }

    const Index sessionCount =
        options.sessions > 0 ? options.sessions
                             : static_cast<Index>(structureCount);
    const Index requestCount =
        sessionCount * options.requestsPerSession;

    std::vector<Run> runs;
    for (unsigned coreCount : options.cores) {
        ServiceConfig serviceConfig;
        serviceConfig.maxQueueDepth =
            static_cast<std::size_t>(requestCount) + 8;
        // Serial kernels: parallelism comes from the fleet's job-level
        // concurrency, not from intra-solve threading.
        serviceConfig.execution.numThreads = 1;
        serviceConfig.fleet.coreCount = coreCount;
        serviceConfig.fleet.slotsPerCore = 1;  // one device per core
        serviceConfig.fleet.affinityQueueBound = 2;
        SolverService service(serviceConfig);

        std::vector<SessionId> ids;
        ids.reserve(static_cast<std::size_t>(sessionCount));
        for (Index s = 0; s < sessionCount; ++s)
            ids.push_back(service.openSession(sessionConfig));

        Timer timer;
        std::vector<std::future<SessionResult>> futures;
        futures.reserve(static_cast<std::size_t>(requestCount));
        for (Index r = 0; r < options.requestsPerSession; ++r)
            for (Index s = 0; s < sessionCount; ++s) {
                const QpProblem& base =
                    bases[static_cast<std::size_t>(s) % bases.size()];
                futures.push_back(
                    service.submit(ids[static_cast<std::size_t>(s)],
                                   perturbValues(base, r)));
            }
        for (std::future<SessionResult>& future : futures)
            future.get();

        Run run;
        run.cores = coreCount;
        run.wallSeconds = timer.seconds();
        run.fleet = service.fleetStats();
        const ServiceStats stats = service.stats();
        run.completed = stats.completed;
        run.rejected = stats.rejected;
        for (const CoreStats& core : run.fleet.cores) {
            run.deviceSecondsTotal += core.deviceSeconds;
            run.makespanSeconds =
                std::max(run.makespanSeconds, core.deviceSeconds);
            run.interleavedJobs += core.interleavedJobs;
        }
        run.throughput = run.wallSeconds > 0.0
                             ? static_cast<double>(run.completed) /
                                   run.wallSeconds
                             : 0.0;
        run.modeledSpeedup =
            run.makespanSeconds > 0.0
                ? run.deviceSecondsTotal / run.makespanSeconds
                : 0.0;
        run.wallSpeedup =
            !runs.empty() && runs.front().throughput > 0.0
                ? run.throughput / runs.front().throughput
                : 1.0;

        for (SessionId id : ids)
            service.closeSession(id);
        runs.push_back(std::move(run));
    }

    if (options.json) {
        std::cout << "{\n  \"seed\": " << options.seed
                  << ",\n  \"placement_policy\": \"affinity\""
                  << ",\n  \"workload\": {\"structures\": "
                  << structureCount << ", \"sessions\": "
                  << sessionCount
                  << ", \"requests\": " << requestCount << "},\n"
                  << "  \"runs\": [\n";
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const Run& run = runs[i];
            std::cout << "    {\"cores\": " << run.cores
                      << ", \"wall_seconds\": "
                      << formatFixed(run.wallSeconds, 6)
                      << ", \"throughput_jobs_per_s\": "
                      << formatFixed(run.throughput, 3)
                      << ", \"speedup_vs_single\": "
                      << formatFixed(run.wallSpeedup, 3)
                      << ", \"device_seconds_total\": "
                      << formatFixed(run.deviceSecondsTotal, 6)
                      << ", \"device_makespan_seconds\": "
                      << formatFixed(run.makespanSeconds, 6)
                      << ", \"modeled_speedup\": "
                      << formatFixed(run.modeledSpeedup, 3)
                      << ", \"completed\": " << run.completed
                      << ", \"rejected\": " << run.rejected
                      << ", \"interleaved_jobs\": "
                      << run.interleavedJobs << ", \"per_core\": [";
            for (std::size_t c = 0; c < run.fleet.cores.size(); ++c) {
                const CoreStats& core = run.fleet.cores[c];
                std::cout
                    << (c > 0 ? ", " : "") << "{\"core\": " << core.core
                    << ", \"jobs\": " << core.jobs
                    << ", \"streams\": " << core.streams
                    << ", \"interleaved_jobs\": " << core.interleavedJobs
                    << ", \"busy_seconds\": "
                    << formatFixed(core.busySeconds, 6)
                    << ", \"device_seconds\": "
                    << formatFixed(core.deviceSeconds, 6)
                    << ", \"utilization_percent\": "
                    << formatFixed(core.utilizationPercent, 2)
                    << ", \"cache_hits\": " << core.cache.hits
                    << ", \"cache_misses\": " << core.cache.misses
                    << "}";
            }
            std::cout << "]}" << (i + 1 < runs.size() ? "," : "")
                      << "\n";
        }
        std::cout << "  ],\n  \"scaling\": {";
        bool first = true;
        for (const Run& run : runs) {
            std::cout << (first ? "" : ", ") << "\"modeled_speedup_"
                      << run.cores << "core\": "
                      << formatFixed(run.modeledSpeedup, 3);
            first = false;
        }
        std::cout << "}\n}\n";
    } else {
        std::cout << "# fleet scaling: " << structureCount
                  << " structures, " << sessionCount << " sessions, "
                  << requestCount << " requests per run\n";
        TextTable table({"cores", "wall_s", "jobs_per_s",
                         "wall_speedup", "modeled_speedup",
                         "interleaved", "rejected"});
        for (const Run& run : runs)
            table.addRow({std::to_string(run.cores),
                          formatFixed(run.wallSeconds, 3),
                          formatFixed(run.throughput, 1),
                          formatFixed(run.wallSpeedup, 2),
                          formatFixed(run.modeledSpeedup, 2),
                          std::to_string(run.interleavedJobs),
                          std::to_string(run.rejected)});
        table.print(std::cout);
    }

    // Exit code doubles as a sanity gate: every request must complete
    // (the queue is sized for the workload, so rejects mean a bug).
    int failures = 0;
    for (const Run& run : runs)
        if (run.rejected != 0 ||
            run.completed != static_cast<Count>(requestCount))
            ++failures;
    return failures;
}
