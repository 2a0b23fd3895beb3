/**
 * @file
 * Service-layer benchmark: what the customization cache and the
 * session fast paths buy a client that solves repeated or parametric
 * QPs through the SolverService front-end.
 *
 * Per suite problem, three latencies:
 *
 *   cold        first solve ever for the structure (full E_p/E_c run)
 *   warm        a *different* session, same structure (cache hit: the
 *               frozen artifact is thawed, only values re-packed)
 *   parametric  repeat solve in the same session with a new q
 *               (no setup at all)
 *
 * and the exact ADMM and PCG iteration counts of the cold and the
 * parametric solve (from SessionResult::telemetry), plus a
 * multi-session burst that exercises the admission queue. The JSON
 * output is the CI perf-smoke artifact.
 *
 * Flags:
 *   --quick       fewer/smaller problems (CI smoke)
 *   --json        JSON object on stdout (machine-readable artifact)
 *   --seed=N      generator seed offset (default 0)
 *   --sizes=N     suite sizes per domain (default 3)
 *   --sessions=N  burst width (default 4)
 */

#include <future>
#include <iostream>
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
    Index sizesPerDomain = 3;
    Index sessions = 4;
};

Options
parseOptions(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            options.quick = true;
            options.sizesPerDomain = 1;
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg.rfind("--seed=", 0) == 0) {
            options.seed =
                static_cast<std::uint64_t>(std::stoull(arg.substr(7)));
        } else if (arg.rfind("--sizes=", 0) == 0) {
            options.sizesPerDomain =
                static_cast<Index>(std::stoi(arg.substr(8)));
        } else if (arg.rfind("--sessions=", 0) == 0) {
            options.sessions =
                static_cast<Index>(std::stoi(arg.substr(11)));
        } else {
            std::cerr << "unknown flag: " << arg << "\n"
                      << "flags: --quick --json --seed=N --sizes=N "
                         "--sessions=N\n";
            std::exit(2);
        }
    }
    return options;
}

struct Row
{
    std::string name;
    Index n = 0;
    Index m = 0;
    Count nnz = 0;
    double coldSetupSeconds = 0.0;
    double warmSetupSeconds = 0.0;
    double parametricSeconds = 0.0;
    double setupSpeedup = 0.0;
    Index coldAdmmIterations = 0;
    Count coldPcgIterations = 0;
    Index parametricAdmmIterations = 0;
    Count parametricPcgIterations = 0;
    std::string coldStatus;
    bool warmCacheHit = false;
    bool warmBitwiseEqual = false;
};

/** Same structure, different numbers: the cache-hit probe problem. */
QpProblem
perturbValues(const QpProblem& qp)
{
    QpProblem out = qp;
    for (Real& v : out.q)
        v = 1.5 * v + 0.1;
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parseOptions(argc, argv);

    OsqpSettings settings;
    settings.maxIter = options.quick ? 250 : 1000;
    CustomizeSettings custom;
    custom.c = options.quick ? 16 : 64;

    SessionConfig sessionConfig;
    sessionConfig.osqp = settings;
    sessionConfig.custom = custom;

    ServiceConfig serviceConfig;
    serviceConfig.maxQueueDepth = 256;
    SolverService service(serviceConfig);

    std::vector<ProblemSpec> specs =
        benchmarkSuite(options.sizesPerDomain);
    for (ProblemSpec& spec : specs)
        spec.seed += options.seed;
    if (options.quick && specs.size() > 3)
        specs.resize(3);

    std::vector<Row> rows;
    for (const ProblemSpec& spec : specs) {
        const QpProblem qp = spec.generate();
        Row row;
        row.name = spec.name;
        row.n = qp.numVariables();
        row.m = qp.numConstraints();
        row.nnz = qp.totalNnz();

        // Cold: first structure sighting, full customization pipeline.
        const SessionId first = service.openSession(sessionConfig);
        const SessionResult cold = service.solve(first, qp);
        row.coldSetupSeconds = cold.setupSeconds;
        row.coldStatus = statusToString(cold.status);
        row.coldAdmmIterations = cold.telemetry.iterations;
        row.coldPcgIterations = cold.telemetry.pcgIterationsTotal;

        // Warm: a brand-new session, structurally identical problem
        // with different values — must hit the cache and reproduce a
        // standalone cold solve bitwise.
        const QpProblem probe = perturbValues(qp);
        const SessionId second = service.openSession(sessionConfig);
        const SessionResult warm = service.solve(second, probe);
        row.warmSetupSeconds = warm.setupSeconds;
        row.warmCacheHit = warm.cacheHit;
        row.setupSpeedup =
            warm.setupSeconds > 0.0
                ? row.coldSetupSeconds / warm.setupSeconds
                : 0.0;
        {
            RsqpSolver reference(probe, settings, custom);
            const OsqpResult ref = reference.solve();
            row.warmBitwiseEqual =
                ref.info.status == warm.status && ref.x == warm.x &&
                ref.y == warm.y;
        }

        // Parametric: repeat solve in the first session, new q only.
        const SessionResult repeat =
            service.solve(first, perturbValues(qp));
        row.parametricSeconds =
            repeat.setupSeconds + repeat.solveSeconds;
        row.parametricAdmmIterations = repeat.telemetry.iterations;
        row.parametricPcgIterations = repeat.telemetry.pcgIterationsTotal;

        service.closeSession(first);
        service.closeSession(second);
        rows.push_back(row);
    }

    // Burst: N sessions, 3 requests each, all in flight at once —
    // exercises the admission queue and the per-session serialization.
    const Index burstSessions = options.sessions;
    const Index burstRepeats = 3;
    double burstSeconds = 0.0;
    {
        const QpProblem qp = specs.front().generate();
        std::vector<SessionId> ids;
        for (Index s = 0; s < burstSessions; ++s)
            ids.push_back(service.openSession(sessionConfig));
        Timer timer;
        std::vector<std::future<SessionResult>> futures;
        for (Index r = 0; r < burstRepeats; ++r)
            for (SessionId id : ids)
                futures.push_back(service.submit(id, qp));
        for (std::future<SessionResult>& future : futures)
            future.get();
        burstSeconds = timer.seconds();
        for (SessionId id : ids)
            service.closeSession(id);
    }

    const ServiceStats stats = service.stats();

    if (options.json) {
        std::cout << "{\n  \"seed\": " << options.seed
                  << ",\n  \"problems\": [\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row& row = rows[i];
            std::cout << "    {\"name\": \""
                      << bench::jsonEscape(row.name)
                      << "\", \"n\": " << row.n
                      << ", \"m\": " << row.m
                      << ", \"nnz\": " << row.nnz
                      << ", \"cold_setup_seconds\": "
                      << formatFixed(row.coldSetupSeconds, 6)
                      << ", \"warm_setup_seconds\": "
                      << formatFixed(row.warmSetupSeconds, 6)
                      << ", \"setup_speedup\": "
                      << formatFixed(row.setupSpeedup, 3)
                      << ", \"parametric_solve_seconds\": "
                      << formatFixed(row.parametricSeconds, 6)
                      << ", \"cold_admm_iterations\": "
                      << row.coldAdmmIterations
                      << ", \"cold_pcg_iterations\": "
                      << row.coldPcgIterations
                      << ", \"parametric_admm_iterations\": "
                      << row.parametricAdmmIterations
                      << ", \"parametric_pcg_iterations\": "
                      << row.parametricPcgIterations
                      << ", \"cold_status\": \""
                      << bench::jsonEscape(row.coldStatus)
                      << "\", \"warm_cache_hit\": "
                      << (row.warmCacheHit ? "true" : "false")
                      << ", \"warm_bitwise_equal\": "
                      << (row.warmBitwiseEqual ? "true" : "false")
                      << "}" << (i + 1 < rows.size() ? "," : "")
                      << "\n";
        }
        std::cout << "  ],\n  \"burst\": {\"sessions\": "
                  << burstSessions
                  << ", \"requests\": " << burstSessions * burstRepeats
                  << ", \"wall_seconds\": "
                  << formatFixed(burstSeconds, 6) << "},\n"
                  << "  \"cache\": {\"hits\": " << stats.cache.hits
                  << ", \"misses\": " << stats.cache.misses
                  << ", \"evictions\": " << stats.cache.evictions
                  << ", \"size\": " << stats.cache.size
                  << ", \"capacity\": " << stats.cache.capacity
                  << ", \"footprint_bytes\": "
                  << stats.cache.footprintBytes << "},\n"
                  << "  \"service\": {\"submitted\": " << stats.submitted
                  << ", \"completed\": " << stats.completed
                  << ", \"rejected\": " << stats.rejected
                  << ", \"expired\": " << stats.expired
                  << ", \"peak_queue_depth\": " << stats.peakQueueDepth
                  << "}\n}\n";
        // Exit code doubles as the CI correctness gate: every warm
        // solve must be a cache hit and bitwise-equal to cold.
        int failures = 0;
        for (const Row& row : rows)
            if (!row.warmCacheHit || !row.warmBitwiseEqual)
                ++failures;
        return failures;
    }

    std::cout << "# service layer: cold vs cached vs parametric\n";
    TextTable table({"problem", "nnz", "cold_setup_s", "warm_setup_s",
                     "speedup", "parametric_s", "cold_admm", "cold_pcg",
                     "param_admm", "param_pcg", "hit", "bitwise"});
    for (const Row& row : rows)
        table.addRow({row.name, std::to_string(row.nnz),
                      formatFixed(row.coldSetupSeconds, 6),
                      formatFixed(row.warmSetupSeconds, 6),
                      formatFixed(row.setupSpeedup, 2),
                      formatFixed(row.parametricSeconds, 6),
                      std::to_string(row.coldAdmmIterations),
                      std::to_string(row.coldPcgIterations),
                      std::to_string(row.parametricAdmmIterations),
                      std::to_string(row.parametricPcgIterations),
                      row.warmCacheHit ? "yes" : "NO",
                      row.warmBitwiseEqual ? "yes" : "NO"});
    table.print(std::cout);
    std::cout << "\nburst: " << burstSessions << " sessions x "
              << burstRepeats << " requests in "
              << formatFixed(burstSeconds, 3) << " s\n"
              << "cache: " << stats.cache.hits << " hits, "
              << stats.cache.misses << " misses, footprint "
              << stats.cache.footprintBytes << " bytes\n";
    return 0;
}
