/**
 * @file
 * Fault-tolerance overhead study on the Fig. 7 benchmark suite: wall
 * clock of the ADMM solve with the numerical watchdog disabled
 * (legacy behavior) versus enabled (default), plus a third pass with
 * seeded soft-error injection to demonstrate detection/recovery. The
 * acceptance bar is a median watchdog overhead below 2% with
 * injection disabled.
 *
 * Flags:
 *   --quick     tiny suite / few reps (CI smoke)
 *   --sizes=N   sizes per domain (1..20)
 *   --csv       CSV instead of the aligned table
 *   --json      JSON object on stdout (machine-readable artifact)
 *   --seed=N    fault-injection seed (default 42)
 *   --rate=X    faults per streamed word (default 1e-4)
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/rsqp.hpp"
#include "linalg/vector_ops.hpp"

namespace
{

using namespace rsqp;

struct Options
{
    bool quick = false;
    bool csv = false;
    bool json = false;
    Index sizesPerDomain = 4;
    std::uint64_t seed = 42;
    Real rate = 1e-4;
};

Options
parseOptions(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            options.quick = true;
            options.sizesPerDomain = 2;
        } else if (arg == "--csv") {
            options.csv = true;
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg.rfind("--sizes=", 0) == 0) {
            options.sizesPerDomain =
                static_cast<Index>(std::stoi(arg.substr(8)));
        } else if (arg.rfind("--seed=", 0) == 0) {
            options.seed =
                static_cast<std::uint64_t>(std::stoull(arg.substr(7)));
        } else if (arg.rfind("--rate=", 0) == 0) {
            options.rate = std::stod(arg.substr(7));
        } else {
            std::cerr << "unknown flag: " << arg << "\n"
                      << "flags: --quick --csv --json --sizes=N "
                         "--seed=N --rate=X\n";
            std::exit(2);
        }
    }
    return options;
}

OsqpSettings
baseSettings(const Options& options)
{
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    settings.maxIter = options.quick ? 500 : 2000;
    return settings;
}

/** Accumulate solves until ~30 ms or `cap` reps; mean seconds. */
double
timeSolve(const QpProblem& qp, const OsqpSettings& settings, int cap,
          SolveStatus* status_out = nullptr)
{
    int reps = 0;
    double total = 0.0;
    while (reps < cap && total < 0.03) {
        OsqpSolver solver(qp, settings);
        Timer timer;
        const OsqpResult result = solver.solve();
        total += timer.seconds();
        ++reps;
        if (status_out != nullptr)
            *status_out = result.info.status;
    }
    return total / reps;
}

struct Row
{
    std::string name;
    double legacySeconds = 0.0;
    double guardedSeconds = 0.0;
    double overheadPercent = 0.0;
    std::string injectedStatus;
    Count faultsInjected = 0;
    Index recoveryEvents = 0;
};

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parseOptions(argc, argv);
    const int reps = options.quick ? 2 : 5;

    std::vector<Row> rows;
    std::vector<double> overheads;
    Index nonTyped = 0, nonFinite = 0;

    // The reduced suite's log-spaced endpoints include each domain's
    // largest instance; keep the smoke run fast by skipping anything
    // beyond the nnz budget in quick mode.
    const Count max_nnz = options.quick ? 20000 : (1LL << 62);

    for (const ProblemSpec& spec :
         benchmarkSuite(options.sizesPerDomain)) {
        const QpProblem qp = spec.generate();
        if (qp.totalNnz() > max_nnz)
            continue;
        Row row;
        row.name = spec.name;

        // Legacy: no watchdog, no checkpointing, no injection.
        OsqpSettings legacy = baseSettings(options);
        legacy.faultTolerance.watchdog = false;
        legacy.faultTolerance.stallChecks = 0;
        row.legacySeconds = timeSolve(qp, legacy, reps);

        // Guarded: the default fault-tolerance layer, injection off.
        const OsqpSettings guarded = baseSettings(options);
        row.guardedSeconds = timeSolve(qp, guarded, reps);
        row.overheadPercent = row.legacySeconds > 0.0
            ? 100.0 * (row.guardedSeconds - row.legacySeconds) /
                row.legacySeconds
            : 0.0;
        overheads.push_back(row.overheadPercent);

        // Injected: seeded soft errors; every solve must stay typed
        // and finite (the end-to-end detection/recovery proof).
        OsqpSettings injected = baseSettings(options);
        injected.faultInjection.enabled = true;
        injected.faultInjection.seed = options.seed;
        injected.faultInjection.ratePerWord = options.rate;
        OsqpSolver solver(qp, injected);
        const OsqpResult result = solver.solve();
        row.injectedStatus = statusToString(result.info.status);
        row.recoveryEvents =
            static_cast<Index>(result.info.recovery.events.size());
        if (result.info.status == SolveStatus::Unsolved)
            ++nonTyped;
        if (hasNonFinite(result.x) || hasNonFinite(result.y) ||
            hasNonFinite(result.z))
            ++nonFinite;
        rows.push_back(row);
    }

    std::vector<double> sorted = overheads;
    std::sort(sorted.begin(), sorted.end());
    const double median =
        sorted.empty() ? 0.0 : sorted[sorted.size() / 2];

    if (options.json) {
        std::cout << "{\n  \"problems\": [\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row& row = rows[i];
            std::cout << "    {\"name\": \""
                      << bench::jsonEscape(row.name)
                      << "\", \"legacy_seconds\": "
                      << formatFixed(row.legacySeconds, 6)
                      << ", \"guarded_seconds\": "
                      << formatFixed(row.guardedSeconds, 6)
                      << ", \"overhead_percent\": "
                      << formatFixed(row.overheadPercent, 2)
                      << ", \"injected_status\": \""
                      << bench::jsonEscape(row.injectedStatus)
                      << "\", \"recovery_events\": "
                      << row.recoveryEvents << "}"
                      << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        std::cout << "  ],\n  \"median_overhead_percent\": "
                  << formatFixed(median, 2)
                  << ",\n  \"untyped_results\": " << nonTyped
                  << ",\n  \"nonfinite_results\": " << nonFinite
                  << "\n}\n";
        return nonTyped + nonFinite;
    }

    TextTable table({"problem", "legacy_s", "guarded_s", "overhead_%",
                     "injected_status", "recovery_events"});
    for (const Row& row : rows)
        table.addRow({row.name, formatFixed(row.legacySeconds, 6),
                      formatFixed(row.guardedSeconds, 6),
                      formatFixed(row.overheadPercent, 2),
                      row.injectedStatus,
                      std::to_string(row.recoveryEvents)});
    std::cout << "# fault-tolerance overhead (watchdog on vs off, "
                 "+ seeded injection at rate "
              << options.rate << ")\n";
    if (options.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "median overhead: " << formatFixed(median, 2)
              << "% (target < 2%)\n"
              << "untyped results under injection: " << nonTyped << "\n"
              << "non-finite results under injection: " << nonFinite
              << "\n";
    // Nonzero exit on any violated fault-tolerance guarantee so the
    // CI smoke job fails loudly.
    return nonTyped + nonFinite;
}
