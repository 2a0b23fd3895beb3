/**
 * @file
 * Shared infrastructure of the figure/table benchmark harnesses:
 * command-line options, and the standard three-backend measurement
 * (CPU indirect wall clock, simulated FPGA baseline + customized,
 * GPU model) used by Figs. 10-13.
 *
 * Flags:
 *   --full        run the full 120-problem suite (default: reduced)
 *   --sizes=N     sizes per domain (1..20)
 *   --csv         emit CSV instead of an aligned table
 *   --quick       tiny suite for smoke runs
 */

#ifndef RSQP_BENCH_BENCH_UTIL_HPP
#define RSQP_BENCH_BENCH_UTIL_HPP

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/rsqp.hpp"

namespace rsqp::bench
{

/**
 * Escape a string for embedding inside a JSON string literal: quotes,
 * backslashes and control characters become their escape sequences.
 * Every harness that prints a string field into a --json artifact must
 * route it through here — problem names come from generator specs
 * today, but schema checkers downstream parse the output strictly.
 */
inline std::string
jsonEscape(const std::string& raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char ch : raw) {
        const unsigned char byte = static_cast<unsigned char>(ch);
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (byte < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

struct BenchOptions
{
    Index sizesPerDomain = 6;
    bool csv = false;
    Index maxIter = 1000;
    Index deviceC = 64;
};

inline BenchOptions
parseOptions(int argc, char** argv)
{
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--full") {
            options.sizesPerDomain = 20;
        } else if (arg == "--quick") {
            options.sizesPerDomain = 3;
            options.maxIter = 250;
        } else if (arg == "--csv") {
            options.csv = true;
        } else if (arg.rfind("--sizes=", 0) == 0) {
            options.sizesPerDomain =
                static_cast<Index>(std::stoi(arg.substr(8)));
        } else if (arg.rfind("--max-iter=", 0) == 0) {
            options.maxIter =
                static_cast<Index>(std::stoi(arg.substr(11)));
        } else if (arg.rfind("--c=", 0) == 0) {
            options.deviceC =
                static_cast<Index>(std::stoi(arg.substr(4)));
        } else {
            std::cerr << "unknown flag: " << arg << "\n"
                      << "flags: --full --quick --csv --sizes=N "
                         "--max-iter=N --c=N\n";
            std::exit(2);
        }
    }
    return options;
}

inline OsqpSettings
benchSettings(const BenchOptions& options)
{
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    settings.maxIter = options.maxIter;
    return settings;
}

/** Full three-backend measurement of one benchmark problem. */
struct ProblemMeasurement
{
    std::string name;
    Domain domain = Domain::Control;
    Count nnz = 0;
    Index n = 0;
    Index m = 0;

    // CPU (indirect PCG, the "mkl" role) — measured wall clock.
    double cpuSeconds = 0.0;
    OsqpInfo cpuInfo;

    // Simulated FPGA.
    OsqpResult deviceBaseline;
    OsqpResult deviceCustom;
    std::string deviceCustomArch;  ///< "C{...}+cvb" tag

    // GPU model.
    GpuSolveEstimate gpu;
};

/**
 * Measure one problem on all backends. The CPU run is repeated until
 * it accumulates ~30 ms or 3 repetitions, whichever first, to tame
 * timer noise on tiny instances.
 */
inline ProblemMeasurement
measureProblem(const ProblemSpec& spec, const BenchOptions& options)
{
    ProblemMeasurement meas;
    meas.name = spec.name;
    meas.domain = spec.domain;
    const QpProblem qp = spec.generate();
    meas.nnz = qp.totalNnz();
    meas.n = qp.numVariables();
    meas.m = qp.numConstraints();

    const OsqpSettings settings = benchSettings(options);

    // CPU reference (fresh solver per repetition: cold start).
    {
        int reps = 0;
        double total = 0.0;
        while (reps < 3 && total < 0.03) {
            OsqpSolver cpu(qp, settings);
            Timer timer;
            const OsqpResult result = cpu.solve();
            total += timer.seconds();
            ++reps;
            meas.cpuInfo = result.info;
        }
        meas.cpuSeconds = total / reps;
    }

    // Simulated FPGA, baseline and customized.
    {
        CustomizeSettings base_cfg;
        base_cfg.c = options.deviceC;
        base_cfg.customizeStructures = false;
        base_cfg.compressCvb = false;
        RsqpSolver baseline(qp, settings, base_cfg);
        meas.deviceBaseline = baseline.solve();

        CustomizeSettings custom_cfg;
        custom_cfg.c = options.deviceC;
        RsqpSolver customized(qp, settings, custom_cfg);
        meas.deviceCustom = customized.solve();
        meas.deviceCustomArch = customized.config().name();
    }

    // GPU model, driven by the CPU run's trajectory.
    meas.gpu = estimateGpuSolve(qp, meas.cpuInfo, settings);
    return meas;
}

/** Emit the table in the selected format plus a short header line. */
inline void
emitTable(const TextTable& table, const BenchOptions& options,
          const std::string& title)
{
    std::cout << "# " << title << "\n";
    if (options.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\n";
}

} // namespace rsqp::bench

#endif // RSQP_BENCH_BENCH_UTIL_HPP
