/**
 * @file
 * perfbench: wall-clock benchmark of the RSQP solver service.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans FILE]
 *
 * --trace 0 measures the end-to-end metrics: the service is set up
 * three to seven times (set-up time is their median), then the workload runs for
 * S seconds through submitAsync and every answer is checked.
 * --trace 1 runs the workload for S/2 seconds untraced and S/2 seconds
 * with spans, then times direct calls into each layer on the same
 * inputs and prints the per-layer metrics. --spans writes every span
 * as JSON lines.
 *
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * The exit code is non-zero when an answer fails the checker or a
 * workload self-check fails.
 */

#include <iostream>
#include <sstream>
#include <string>

#include "checker.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace
{

using namespace perfbench;
using rsqp::AdmissionClass;

/** Set-up repetitions per run (setup_s is their median): at least
 *  kMinSetups, and more, up to kMaxSetups, while they add up to less
 *  than kSetupBudgetSeconds. */
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 7;
constexpr double kSetupBudgetSeconds = 3.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string spansPath;
};

bool
parse(int argc, char** argv, Options& options)
{
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload") {
                options.workload = value;
                haveWorkload = true;
            } else if (key == "--seed") {
                options.seed = std::stoull(value);
                haveSeed = true;
            } else if (key == "--seconds") {
                options.seconds = std::stod(value);
                haveSeconds = options.seconds > 0.0;
            } else if (key == "--trace") {
                options.trace = value == "1";
                haveTrace = value == "0" || value == "1";
            } else if (key == "--spans") {
                options.spansPath = value;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return argc % 2 == 1 && haveWorkload && haveSeed && haveSeconds &&
        haveTrace;
}

/** Failure log: every entry voids the run. */
struct Verdict
{
    std::vector<std::string> failures;

    void
    require(bool ok, const std::string& what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/** Certify every Solved answer of a window with the independent checker. */
void
certify(const Workload& w, Window& window, Verdict& verdict)
{
    const rsqp::OsqpSettings& settings = w.sessions.front().osqp;
    std::size_t failedChecks = 0;
    for (Record& rec : window.records) {
        if (rec.status != rsqp::SolveStatus::Solved)
            continue;
        const Structure& s = w.structures[rec.structure];
        const ValueVariant& v = s.variants[rec.variant];
        const CheckResult check =
            checkAnswer(s.base.pUpper, v.q, s.base.a, v.l, v.u, rec.x, rec.y,
                        settings.epsAbs, settings.epsRel);
        rec.certified = check.ok();
        if (!rec.certified && failedChecks++ == 0)
            std::cerr << "checker: structure " << rec.structure
                      << " primal " << check.primalResidual << " > "
                      << check.primalTolerance << " or dual "
                      << check.dualResidual << " > " << check.dualTolerance
                      << "\n";
        // The checker is done with the answer; free it.
        rsqp::Vector().swap(rec.x);
        rsqp::Vector().swap(rec.y);
    }
    verdict.require(failedChecks == 0,
                    std::to_string(failedChecks) +
                        " Solved answers failed the independent checker");
}

struct Routes
{
    double parametric = 0, thaw = 0, customize = 0;
    double total() const { return parametric + thaw + customize; }
};

Routes
routes(const Window& window)
{
    Routes r;
    for (const Record& rec : window.records) {
        if (rec.status == rsqp::SolveStatus::Rejected)
            continue;
        if (rec.parametric)
            r.parametric += 1;
        else if (rec.cacheHit)
            r.thaw += 1;
        else
            r.customize += 1;
    }
    return r;
}

/** Workload self-checks: void the run when a workload stops exercising
 *  the layer it exists for. */
void
selfCheck(const Workload& w, const Window& window, double seconds,
          Verdict& verdict)
{
    const Routes r = routes(window);
    const std::string tag = w.name + ": ";
    if (!w.openLoop)
        verdict.require(window.records.size() >= w.minRequests,
                        tag + "fewer than " +
                            std::to_string(w.minRequests) +
                            " requests completed");
    if (w.name == "host_pcg_large") {
        verdict.require(r.parametric == double(window.records.size()),
                        tag + "a measured request left the parametric route");
    } else if (w.name == "device_churn") {
        // Stated route shares: the request pattern asks for 20%
        // value-only, 40% revisits (cache thaw) and 40% new structures
        // (customize); a revisit evicted before it returns customizes.
        const double n = std::max(1.0, r.total());
        verdict.require(r.parametric / n >= 0.15 && r.parametric / n <= 0.25,
                        tag + "parametric share outside [0.15, 0.25]");
        verdict.require(r.thaw / n >= 0.30 && r.thaw / n <= 0.50,
                        tag + "thaw share outside [0.30, 0.50]");
        verdict.require(r.customize / n >= 0.30 && r.customize / n <= 0.50,
                        tag + "customize share outside [0.30, 0.50]");
        verdict.require(
            window.after.cache.evictions > window.before.cache.evictions,
            tag + "no cache evictions in the window");
    } else {
        // Achieved rate: every scheduled send went out and the last one
        // no later than 2% past the window; no growing backlog; bounded
        // generator lateness.
        verdict.require(window.sendSeconds <= seconds * 1.02,
                        tag + "achieved rate fell behind the offered rate");
        const std::size_t q = window.outstanding.size() / 4;
        if (q > 0) {
            double head = 0, tail = 0;
            for (std::size_t i = 0; i < q; ++i) {
                head += double(window.outstanding[i]);
                tail += double(window.outstanding[window.outstanding.size()
                                                  - 1 - i]);
            }
            verdict.require(tail / q <= 2.0 * head / q + 8.0,
                            tag + "backlog grew across the window");
        }
        verdict.require(percentile(window.lagSeconds, 0.99) <= 0.020,
                        tag + "generator lag p99 above 20 ms");
    }
}

/**
 * Latency percentile of certified requests (Realtime-class only when
 * asked), as the median over up to five equal time slices of the
 * window with at least 100 samples each: a transient stall of the host
 * then moves one slice, not the reported value.
 */
double
slicedPercentile(const Window& window, bool realtimeOnly, double q)
{
    std::vector<const Record*> sample;
    for (const Record& rec : window.records)
        if (rec.certified &&
            (!realtimeOnly || rec.cls == AdmissionClass::Realtime))
            sample.push_back(&rec);
    if (sample.empty())
        return 0.0;
    const std::size_t slices =
        std::clamp<std::size_t>(sample.size() / 100, 1, 5);
    const Clock::time_point start = window.records.front().scheduled;
    const double span = std::max(
        1e-9, secondsBetween(start, sample.back()->scheduled));
    std::vector<std::vector<double>> bySlice(slices);
    for (const Record* rec : sample) {
        const auto k = static_cast<std::size_t>(
            secondsBetween(start, rec->scheduled) / span *
            static_cast<double>(slices));
        bySlice[std::min(k, slices - 1)].push_back(rec->latency());
    }
    std::vector<double> perSlice;
    for (const std::vector<double>& values : bySlice)
        if (!values.empty())
            perSlice.push_back(percentile(values, q));
    return median(perSlice);
}

std::size_t
certifiedCount(const Window& window)
{
    std::size_t n = 0;
    for (const Record& rec : window.records)
        n += rec.certified ? 1 : 0;
    return n;
}

void
endToEnd(const Window& window, double setupSeconds, MetricMap& metrics)
{
    const double attempted = std::max<double>(1.0, window.records.size());
    const double certified = static_cast<double>(certifiedCount(window));
    metrics["latency_p50_ms"] = {1e3 * slicedPercentile(window, false, 0.5),
                                 "ms"};
    metrics["latency_p90_ms"] = {1e3 * slicedPercentile(window, false, 0.9),
                                 "ms"};
    metrics["throughput_rps"] = {certified / window.wallSeconds, "1/s"};
    metrics["goodput_frac"] = {certified / attempted, "frac"};
    metrics["setup_s"] = {setupSeconds, "s"};
    metrics["cpu_ms_per_request"] = {
        1e3 * (window.usage.userSeconds + window.usage.sysSeconds) /
            attempted,
        "ms"};
    metrics["peak_rss_mb"] = {window.usage.maxRssMb, "MB"};
    metrics["realtime_p50_ms"] = {1e3 * slicedPercentile(window, true, 0.5),
                                  "ms"};
    metrics["realtime_p90_ms"] = {1e3 * slicedPercentile(window, true, 0.9),
                                  "ms"};
}

void
perLayer(const Workload& w, const Window& untraced, const Window& traced,
         const SpanRecorder& tracer, const LayerTimes& lt,
         MetricMap& metrics)
{
    const double requests = std::max<double>(1.0, traced.records.size());
    std::vector<double> submitUs, queueMs, unaccountedMs;
    double latencySum = 0, iterations = 0, pcgIterations = 0;
    for (const Record& rec : traced.records) {
        const double latency = rec.latency();
        submitUs.push_back(1e6 * secondsBetween(rec.submitted, rec.returned));
        queueMs.push_back(1e3 * rec.queueWait);
        unaccountedMs.push_back(
            1e3 * (latency - rec.queueWait - rec.setup - rec.solve));
        latencySum += latency;
        iterations += rec.iterations;
        pcgIterations += static_cast<double>(rec.pcgIterations);
    }
    metrics["service.submit_us"] = {median(submitUs), "us"};
    metrics["service.queue_wait_ms"] = {median(queueMs), "ms"};
    metrics["service.unaccounted_ms"] = {median(unaccountedMs), "ms"};
    for (AdmissionClass cls : {AdmissionClass::Realtime,
                               AdmissionClass::Interactive,
                               AdmissionClass::Batch}) {
        const rsqp::ClassStats& a = traced.after.of(cls);
        const rsqp::ClassStats& b = traced.before.of(cls);
        const std::string name = rsqp::admissionClassName(cls);
        metrics["service.rejected." + name] = {
            double(a.rejected - b.rejected), "count"};
        metrics["service.shed." + name] = {double(a.shed - b.shed), "count"};
        metrics["service.expired." + name] = {double(a.expired - b.expired),
                                              "count"};
    }
    metrics["service.fingerprint_us"] = {1e6 * lt.fingerprint, "us"};

    const Routes r = routes(traced);
    metrics["session.route_parametric"] = {r.parametric, "count"};
    metrics["session.route_thaw"] = {r.thaw, "count"};
    metrics["session.route_customize"] = {r.customize, "count"};
    metrics["cache.hit_ratio"] = {
        r.thaw + r.customize > 0 ? r.thaw / (r.thaw + r.customize) : 0.0,
        "frac"};
    metrics["cache.evictions"] = {
        double(traced.after.cache.evictions - traced.before.cache.evictions),
        "count"};

    const double parts = lt.search + lt.schedule + lt.pack + lt.cvb;
    metrics["core.customize_ms"] = {1e3 * lt.customize, "ms"};
    metrics["core.thaw_ms"] = {1e3 * lt.thaw, "ms"};
    metrics["encoding.search_ms"] = {1e3 * lt.search, "ms"};
    metrics["encoding.schedule_ms"] = {1e3 * lt.schedule, "ms"};
    metrics["encoding.pack_ms"] = {1e3 * lt.pack, "ms"};
    metrics["cvb.compress_ms"] = {1e3 * lt.cvb, "ms"};
    metrics["core.eta"] = {lt.eta, "ratio"};
    metrics["arch.build_ms"] = {1e3 * lt.build, "ms"};
    metrics["arch.sim_ms"] = {1e3 * lt.sim, "ms"};
    metrics["arch.sim_mcycles_per_s"] = {1e-6 * lt.simCyclesPerSecond,
                                         "Mcycle/s"};
    metrics["arch.modeled_device_ms"] = {1e3 * lt.modeledDevice, "ms"};

    metrics["osqp.admm_iterations"] = {iterations / requests, "count"};
    metrics["solvers.pcg_iterations"] = {pcgIterations / requests, "count"};
    metrics["solvers.pcg_per_kkt"] = {
        iterations > 0 ? pcgIterations / iterations : 0.0, "count"};
    metrics["backends.solve_ms"] = {1e3 * lt.backendSolve, "ms"};
    metrics["solvers.pcg_ms"] = {1e3 * lt.pcg, "ms"};

    metrics["linalg.kkt_apply_us"] = {1e6 * lt.kktApply, "us"};
    metrics["linalg.spmv_us.p"] = {1e6 * lt.spmvP, "us"};
    metrics["linalg.spmv_us.a"] = {1e6 * lt.spmvA, "us"};
    metrics["linalg.spmv_us.at"] = {1e6 * lt.spmvAt, "us"};
    metrics["linalg.kkt_apply_bytes"] = {lt.kktApplyBytes, "bytes"};
    metrics["linalg.kkt_apply_gbps"] = {
        lt.kktApply > 0 ? 1e-9 * lt.kktApplyBytes / lt.kktApply : 0.0,
        "GB/s"};
    metrics["linalg.stream_gbps"] = {1e-9 * lt.streamBytesPerSecond,
                                     "GB/s"};

    // Process resources over the untraced half, per request.
    const double perRequest = std::max<double>(1.0, untraced.records.size());
    metrics["proc.user_ms_per_request"] = {
        1e3 * untraced.usage.userSeconds / perRequest, "ms"};
    metrics["proc.sys_ms_per_request"] = {
        1e3 * untraced.usage.sysSeconds / perRequest, "ms"};
    metrics["proc.minflt_per_request"] = {
        untraced.usage.minorFaults / perRequest, "count"};
    metrics["proc.ctxsw_per_request"] = {
        untraced.usage.contextSwitches / perRequest, "count"};

    std::vector<double> tracedLat, untracedLat;
    for (const Record& rec : traced.records)
        tracedLat.push_back(rec.latency());
    for (const Record& rec : untraced.records)
        untracedLat.push_back(rec.latency());
    const double untracedMedian = median(untracedLat);
    metrics["trace.overhead_frac"] = {
        untracedMedian > 0 ? median(tracedLat) / untracedMedian - 1.0 : 0.0,
        "frac"};
    std::vector<double> lag = untraced.lagSeconds;
    lag.insert(lag.end(), traced.lagSeconds.begin(), traced.lagSeconds.end());
    metrics["loadgen.lag_p99_ms"] = {1e3 * percentile(lag, 0.99), "ms"};

    // Self-time shares of request latency. The service-side split
    // (submit call, program-reported queue wait, route set-up and solve)
    // comes from the request spans; the set-up and solve parts are then
    // split across layers by the direct-call unit times times this
    // window's call counts. Whatever is left is unaccounted, stated
    // explicitly (negative when the attribution overshoots).
    const std::map<std::string, double> self = tracer.selfSecondsByName();
    auto selfOf = [&](const char* name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    double service = selfOf("service.submit") + selfOf("service.queue_wait");
    double session = 0, core = 0, encoding = 0, cvb = 0, arch = 0,
           backends = 0, solvers = 0, linalg = 0;
    const double setup = selfOf("session.setup");
    const double solve = selfOf("session.solve");
    if (w.name == "host_pcg_large") {
        session = setup;
        linalg = pcgIterations * lt.kktApply;
        solvers = pcgIterations * lt.pcgSelfPerIteration;
        backends = std::max(0.0, solve - linalg - solvers);
    } else if (w.name == "device_churn") {
        core = r.customize * std::max(0.0, lt.customize - parts) +
            r.thaw * lt.thaw;
        encoding = r.customize * (lt.search + lt.schedule + lt.pack);
        cvb = r.customize * lt.cvb;
        const double build = (r.customize + r.thaw) * lt.build;
        session = std::max(0.0, setup - core - encoding - cvb - build);
        arch = build + solve;
    } else {
        session = setup;
        arch = solve;
    }
    const double total = std::max(1e-12, latencySum);
    const double unaccounted = total - service - session - core - encoding -
        cvb - arch - backends - solvers - linalg;
    const std::pair<const char*, double> shares[] = {
        {"share.service", service},   {"share.session", session},
        {"share.core", core},         {"share.encoding", encoding},
        {"share.cvb", cvb},           {"share.arch", arch},
        {"share.backends", backends}, {"share.solvers", solvers},
        {"share.linalg", linalg},     {"share.unaccounted", unaccounted}};
    for (const auto& [name, seconds] : shares)
        metrics[name] = {seconds / total, "frac"};
}

std::string
resultLine(bool correct, std::size_t attempted, std::size_t failed,
           const MetricMap& metrics)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : metrics) {
        os << (first ? "" : ", ") << "\"" << name
           << "\": {\"value\": " << metric.value << ", \"unit\": \""
           << metric.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

} // namespace

int
main(int argc, char** argv)
{
    Options options;
    if (!parse(argc, argv, options)) {
        std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--spans FILE]\n";
        return 2;
    }
    Workload w;
    try {
        w = makeWorkload(options.workload, options.seed);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    Verdict verdict;
    std::vector<double> setups;
    LiveService live;
    double setupTotal = 0.0;
    while (static_cast<int>(setups.size()) < kMinSetups ||
           (static_cast<int>(setups.size()) < kMaxSetups &&
            setupTotal < kSetupBudgetSeconds)) {
        live.service.reset();
        live = setUp(w);
        setups.push_back(live.setupSeconds);
        setupTotal += live.setupSeconds;
        verdict.require(live.warmupSolved, "a warm-up solve failed");
    }

    MetricMap metrics;
    std::size_t attempted = 0, failed = 0;
    auto account = [&](const Window& window) {
        attempted += window.records.size();
        failed += window.records.size() - certifiedCount(window);
    };
    if (!options.trace) {
        Window window =
            runWindow(w, live, options.seconds, options.seed, nullptr);
        certify(w, window, verdict);
        selfCheck(w, window, options.seconds, verdict);
        account(window);
        endToEnd(window, median(setups), metrics);
    } else {
        const double half = options.seconds / 2.0;
        SpanRecorder tracer;
        Window untraced = runWindow(w, live, half, options.seed, nullptr);
        Window traced = runWindow(w, live, half, options.seed, &tracer);
        live.service.reset();
        for (Window* window : {&untraced, &traced}) {
            certify(w, *window, verdict);
            selfCheck(w, *window, half, verdict);
            account(*window);
        }
        std::vector<std::uint32_t> rebuilt;
        for (const Record& rec : traced.records)
            if (rec.rebuilt())
                rebuilt.push_back(rec.structure);
        const LayerTimes lt = measureLayers(w, rebuilt, tracer);
        perLayer(w, untraced, traced, tracer, lt, metrics);
        if (!options.spansPath.empty())
            verdict.require(tracer.write(options.spansPath),
                            "could not write " + options.spansPath);
    }
    verdict.require(failed == 0, std::to_string(failed) +
                                     " requests were not solved and "
                                     "certified");

    for (const auto& [name, metric] : metrics)
        std::cerr << "  " << name << " = " << metric.value << " "
                  << metric.unit << "\n";
    for (const std::string& failure : verdict.failures)
        std::cerr << "FAILED: " << failure << "\n";
    const bool correct = verdict.failures.empty();
    std::cout << resultLine(correct, attempted, failed, metrics) << std::endl;
    return correct ? 0 : 1;
}
