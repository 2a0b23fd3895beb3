/**
 * @file
 * Hot-path profile of the indirect (PCG) backend, two sweeps over the
 * largest generated suite problem:
 *
 *  1. threads  — wall clock and per-phase time at each thread count
 *     (SpMV passes, fused CG updates, preconditioner, reductions),
 *     with the bitwise-determinism cross-check;
 *  2. ISA      — single-thread solve at every supported kernel level
 *     (scalar → AVX2 → AVX-512) via simd::forceIsaLevel, with the
 *     per-phase scalar-vs-SIMD speedups.
 *
 * The per-phase numbers are the library's own trace spans
 * (kkt.spmv_p, kkt.spmv_a, kkt.spmv_at, pcg.fused_vector_ops,
 * pcg.precond, pcg.reduction): the bench enables the TraceRecorder,
 * drains it after every solve and sums span durations and counts per
 * name. It exits non-zero rather than report short totals: when a
 * drain reports dropped spans, or when the build compiled the spans
 * out (RSQP_TELEMETRY=OFF).
 *
 * The JSON output is the CI perf-smoke artifact (committed snapshot:
 * results/BENCH_hotpath.json). The top-level keys (problem, n, m, nnz,
 * seed, runs) are stable; the header also carries the
 * detected/compiled/active ISA levels, and the ISA sweep lands in
 * "isa_runs" / "simd_speedup". Each run's "hot_path" object has one
 * {"ns", "calls"} entry per phase, keyed by the span name after its
 * layer prefix, plus "total_ns" and "total_calls".
 *
 * Flags:
 *   --quick         smaller problem / fewer reps (CI smoke)
 *   --json          JSON object on stdout (machine-readable artifact)
 *   --seed=N        generator seed offset (default 0)
 *   --sizes=N       suite sizes per domain to choose from (default 6)
 *   --threads=LIST  comma-separated thread counts (default 1,2,4,8)
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/cpu_features.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/rsqp.hpp"
#include "linalg/simd_kernels.hpp"
#include "telemetry/trace.hpp"

namespace
{

using namespace rsqp;

struct Options
{
    bool quick = false;
    bool json = false;
    std::uint64_t seed = 0;
    Index sizesPerDomain = 6;
    std::vector<Index> threads = {1, 2, 4, 8};
};

Options
parseOptions(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            options.quick = true;
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg.rfind("--seed=", 0) == 0) {
            options.seed =
                static_cast<std::uint64_t>(std::stoull(arg.substr(7)));
        } else if (arg.rfind("--sizes=", 0) == 0) {
            options.sizesPerDomain =
                static_cast<Index>(std::stoi(arg.substr(8)));
        } else if (arg.rfind("--threads=", 0) == 0) {
            options.threads.clear();
            std::stringstream ss(arg.substr(10));
            std::string item;
            while (std::getline(ss, item, ',')) {
                if (item.empty() ||
                    item.find_first_not_of("0123456789") !=
                        std::string::npos) {
                    std::cerr << "--threads expects a comma-separated"
                                 " list of positive integers, got: "
                              << item << "\n";
                    std::exit(2);
                }
                const Index count =
                    static_cast<Index>(std::stoi(item));
                if (count < 1) {
                    std::cerr << "--threads values must be >= 1\n";
                    std::exit(2);
                }
                options.threads.push_back(count);
            }
        } else {
            std::cerr << "unknown flag: " << arg << "\n"
                      << "flags: --quick --json --seed=N --sizes=N "
                         "--threads=LIST\n";
            std::exit(2);
        }
    }
    if (options.threads.empty() || options.threads.front() != 1)
        options.threads.insert(options.threads.begin(), 1);
    return options;
}

/** Hot-path phases, in "hot_path" JSON key order. */
enum Phase : std::size_t
{
    SpmvP,
    SpmvA,
    SpmvAt,
    FusedVectorOps,
    Precond,
    Reduction,
    kNumPhases
};

/** The trace span that times each Phase. */
constexpr std::array<const char*, kNumPhases> kPhaseSpans = {
    "kkt.spmv_p", "kkt.spmv_a", "kkt.spmv_at",
    "pcg.fused_vector_ops", "pcg.precond", "pcg.reduction"};

/**
 * Ring capacity, in events, of the solving thread: the ring must hold
 * a whole solve, because a dropped span would shorten the totals. One
 * solve of the largest default-size problem (lasso_05, seed 0) records
 * about 3,100 spans, 2,474 of them phase spans.
 */
constexpr std::size_t kTraceRingEvents = std::size_t{1} << 15;

/** Summed phase spans of one solve. */
struct PhaseTotals
{
    std::array<std::uint64_t, kNumPhases> ns{};
    std::array<std::uint64_t, kNumPhases> calls{};

    double
    ms(Phase phase) const
    {
        return static_cast<double>(ns[phase]) * 1e-6;
    }

    double
    spmvMs() const
    {
        return ms(SpmvP) + ms(SpmvA) + ms(SpmvAt);
    }

    /** {"spmv_p":{"ns":..,"calls":..},...,"total_ns":..,"total_calls":..} */
    std::string
    toJson() const
    {
        std::uint64_t total_ns = 0;
        std::uint64_t total_calls = 0;
        std::string json = "{";
        for (std::size_t i = 0; i < kNumPhases; ++i) {
            json += '"';
            json += std::strchr(kPhaseSpans[i], '.') + 1;
            json += "\":{\"ns\":" + std::to_string(ns[i]) +
                    ",\"calls\":" + std::to_string(calls[i]) + "},";
            total_ns += ns[i];
            total_calls += calls[i];
        }
        return json + "\"total_ns\":" + std::to_string(total_ns) +
               ",\"total_calls\":" + std::to_string(total_calls) + "}";
    }
};

/**
 * Drain the recorder and sum the phase spans recorded since the last
 * drain. Exits when the ring overflowed: the totals would be short.
 */
PhaseTotals
drainPhases()
{
    const telemetry::TraceRecorder::DrainResult drained =
        telemetry::TraceRecorder::global().drain();
    if (drained.dropped > 0) {
        std::cerr << "trace ring overflowed (" << drained.dropped
                  << " spans dropped); phase totals would be short\n";
        std::exit(1);
    }
    PhaseTotals totals;
    for (const telemetry::TraceEvent& event : drained.events) {
        for (std::size_t i = 0; i < kNumPhases; ++i) {
            if (std::strcmp(event.name, kPhaseSpans[i]) == 0) {
                totals.ns[i] += event.durationNs;
                ++totals.calls[i];
                break;
            }
        }
    }
    return totals;
}

/** One measured solve (fixed thread count or ISA level). */
struct Run
{
    Index threads = 1;
    double solveSeconds = 0.0;
    double kktSeconds = 0.0;
    Count pcgIterations = 0;
    Real objective = 0.0;
    double speedup = 1.0;
    PhaseTotals phases;
    std::string backend;  ///< first-order engine label (telemetry)
};

/** Best-of-`reps` solve of `qp` under the current global kernels. */
Run
measureSolve(const QpProblem& qp, const OsqpSettings& settings,
             int reps)
{
    Run run;
    run.solveSeconds = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
        OsqpSolver solver(qp, settings);
        (void)drainPhases();  // only the solve's own spans count
        Timer timer;
        const OsqpResult result = solver.solve();
        const double seconds = timer.seconds();
        const PhaseTotals phases = drainPhases();
        if (seconds < run.solveSeconds) {
            run.solveSeconds = seconds;
            run.kktSeconds = result.info.kktSolveTime;
            run.pcgIterations = result.info.pcgIterationsTotal;
            run.objective = result.info.objective;
            run.phases = phases;
            run.backend = result.info.telemetry.backend;
        }
    }
    return run;
}

double
ratio(double reference, double value)
{
    return value > 0.0 ? reference / value : 0.0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parseOptions(argc, argv);
    if (!telemetry::kTelemetryCompiled) {
        std::cerr << "bench_hotpath: phase spans compiled out "
                     "(RSQP_TELEMETRY=OFF); nothing to measure\n";
        return 1;
    }
    const Index sizes = options.quick ? 3 : options.sizesPerDomain;
    const int reps = options.quick ? 2 : 3;

    // The largest problem (by total non-zeros) of the reduced suite —
    // the instance where the parallel row-gather has the most rows to
    // split and serial overheads matter least.
    const std::vector<ProblemSpec> specs = benchmarkSuite(sizes);
    const ProblemSpec* largest = nullptr;
    QpProblem qp;
    Count best_nnz = -1;
    for (const ProblemSpec& spec : specs) {
        QpProblem candidate = generateProblem(
            spec.domain, spec.sizeParam, spec.seed + options.seed);
        if (candidate.totalNnz() > best_nnz) {
            best_nnz = candidate.totalNnz();
            largest = &spec;
            qp = std::move(candidate);
        }
    }
    if (largest == nullptr) {
        std::cerr << "empty benchmark suite\n";
        return 1;
    }

    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;

    // Size the solving thread's ring before it records its first span.
    telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::global();
    recorder.setRingCapacity(kTraceRingEvents);
    recorder.enable();

    // Sweep 1: thread counts at the active ISA level.
    std::vector<Run> runs;
    for (Index threads : options.threads) {
        NumThreadsScope scope(threads);
        Run run = measureSolve(qp, settings, reps);
        run.threads = threads;
        runs.push_back(run);
    }
    for (Run& run : runs)
        if (run.solveSeconds > 0.0)
            run.speedup = runs.front().solveSeconds / run.solveSeconds;

    // The solver is bitwise-deterministic across thread counts; a
    // drifting objective here means the deterministic reduction
    // contract broke.
    for (const Run& run : runs) {
        if (run.objective != runs.front().objective) {
            std::cerr << "objective drift at " << run.threads
                      << " threads: " << run.objective << " vs "
                      << runs.front().objective << "\n";
            return 1;
        }
    }

    // Sweep 2: single-thread solve at every supported ISA level.
    const std::vector<IsaLevel> levels = supportedIsaLevels();
    std::vector<Run> isa_runs;
    {
        NumThreadsScope scope(1);
        for (IsaLevel level : levels) {
            simd::forceIsaLevel(level);
            isa_runs.push_back(measureSolve(qp, settings, reps));
        }
        simd::resetIsaLevel();
    }
    recorder.disable();
    const Run& isa_scalar = isa_runs.front();
    const Run& isa_best = isa_runs.back();

    const std::string isa_detected = isaLevelName(detectedIsaLevel());
    const std::string isa_compiled = isaLevelName(compiledIsaLevel());
    const std::string isa_active =
        isaLevelName(simd::activeIsaLevel());

    if (options.json) {
        std::cout << "{\n"
                  << "  \"problem\": \""
                  << bench::jsonEscape(largest->name) << "\",\n"
                  << "  \"n\": " << qp.numVariables() << ",\n"
                  << "  \"m\": " << qp.numConstraints() << ",\n"
                  << "  \"nnz\": " << qp.totalNnz() << ",\n"
                  << "  \"seed\": " << options.seed << ",\n"
                  << "  \"isa_detected\": \"" << isa_detected
                  << "\",\n"
                  << "  \"isa_compiled\": \"" << isa_compiled
                  << "\",\n"
                  << "  \"isa_active\": \"" << isa_active << "\",\n"
                  << "  \"backend\": \""
                  << bench::jsonEscape(runs.front().backend) << "\",\n"
                  << "  \"runs\": [\n";
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const Run& run = runs[i];
            std::cout << "    {\"threads\": " << run.threads
                      << ", \"solve_seconds\": "
                      << formatFixed(run.solveSeconds, 6)
                      << ", \"kkt_seconds\": "
                      << formatFixed(run.kktSeconds, 6)
                      << ", \"pcg_iterations\": " << run.pcgIterations
                      << ", \"speedup\": "
                      << formatFixed(run.speedup, 3)
                      << ", \"hot_path\": " << run.phases.toJson()
                      << "}" << (i + 1 < runs.size() ? "," : "")
                      << "\n";
        }
        std::cout << "  ],\n"
                  << "  \"isa_runs\": [\n";
        for (std::size_t i = 0; i < isa_runs.size(); ++i) {
            const Run& run = isa_runs[i];
            std::cout << "    {\"isa\": \"" << isaLevelName(levels[i])
                      << "\", \"solve_seconds\": "
                      << formatFixed(run.solveSeconds, 6)
                      << ", \"kkt_seconds\": "
                      << formatFixed(run.kktSeconds, 6)
                      << ", \"pcg_iterations\": " << run.pcgIterations
                      << ", \"hot_path\": " << run.phases.toJson()
                      << "}" << (i + 1 < isa_runs.size() ? "," : "")
                      << "\n";
        }
        std::cout
            << "  ],\n"
            << "  \"simd_speedup\": {\"isa\": \""
            << isaLevelName(levels.back()) << "\", \"solve\": "
            << formatFixed(ratio(isa_scalar.solveSeconds,
                                 isa_best.solveSeconds),
                           3)
            << ", \"spmv\": "
            << formatFixed(ratio(isa_scalar.phases.spmvMs(),
                                 isa_best.phases.spmvMs()),
                           3)
            << ", \"fused\": "
            << formatFixed(ratio(isa_scalar.phases.ms(FusedVectorOps),
                                 isa_best.phases.ms(FusedVectorOps)),
                           3)
            << ", \"precond\": "
            << formatFixed(ratio(isa_scalar.phases.ms(Precond),
                                 isa_best.phases.ms(Precond)),
                           3)
            << ", \"reduce\": "
            << formatFixed(ratio(isa_scalar.phases.ms(Reduction),
                                 isa_best.phases.ms(Reduction)),
                           3)
            << "}\n}\n";
        return 0;
    }

    std::cout << "# hot-path profile: " << largest->name
              << " (n=" << qp.numVariables()
              << ", m=" << qp.numConstraints()
              << ", nnz=" << qp.totalNnz()
              << "; host threads: " << hardwareConcurrency()
              << " hardware; isa " << isa_active << " of "
              << isa_detected << " detected)\n";
    const auto ms = [](double value) {
        return formatFixed(value, 2);
    };
    TextTable table({"threads", "solve_s", "kkt_s", "pcg_iters",
                     "speedup", "spmv_p_ms", "spmv_a_ms", "spmv_at_ms",
                     "fused_ms", "precond_ms", "reduce_ms"});
    for (const Run& run : runs) {
        const PhaseTotals& phases = run.phases;
        table.addRow({std::to_string(run.threads),
                      formatFixed(run.solveSeconds, 6),
                      formatFixed(run.kktSeconds, 6),
                      std::to_string(run.pcgIterations),
                      formatFixed(run.speedup, 2),
                      ms(phases.ms(SpmvP)),
                      ms(phases.ms(SpmvA)),
                      ms(phases.ms(SpmvAt)),
                      ms(phases.ms(FusedVectorOps)),
                      ms(phases.ms(Precond)),
                      ms(phases.ms(Reduction))});
    }
    table.print(std::cout);

    std::cout << "\n# ISA sweep (1 thread): per-phase speedup vs "
                 "forced-scalar kernels\n";
    TextTable isa_table({"isa", "solve_s", "kkt_s", "spmv_ms",
                         "fused_ms", "precond_ms", "reduce_ms",
                         "solve_x", "fused_x"});
    for (std::size_t i = 0; i < isa_runs.size(); ++i) {
        const Run& run = isa_runs[i];
        isa_table.addRow(
            {isaLevelName(levels[i]),
             formatFixed(run.solveSeconds, 6),
             formatFixed(run.kktSeconds, 6),
             ms(run.phases.spmvMs()),
             ms(run.phases.ms(FusedVectorOps)),
             ms(run.phases.ms(Precond)),
             ms(run.phases.ms(Reduction)),
             formatFixed(
                 ratio(isa_scalar.solveSeconds, run.solveSeconds), 2),
             formatFixed(ratio(isa_scalar.phases.ms(FusedVectorOps),
                               run.phases.ms(FusedVectorOps)),
                         2)});
    }
    isa_table.print(std::cout);
    return 0;
}
