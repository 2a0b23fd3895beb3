/**
 * @file
 * First-order backend shoot-out over the benchmark suite: plain ADMM
 * (fixed penalty), restarted PDHG, and Auto (the selector's
 * setup-time pick of one of the two), all on identical settings.
 *
 * Rho adaptation is disabled for the sweep so the penalty/step-size
 * policy under test is each engine's own: PDHG adapts its primal
 * weight at restarts, and plain ADMM is the fixed-penalty
 * first-order baseline.
 *
 * The JSON output is a CI perf-smoke artifact. With --check the exit
 * code enforces the two backend-subsystem gates:
 *
 *  1. the selector picks PDHG on at least one problem where PDHG
 *     converged and plain ADMM needed >= 1.5x its iterations;
 *  2. PDHG converges on at least one suite problem where plain ADMM
 *     needed >= 2x its iterations.
 *
 * Flags:
 *   --json          JSON object on stdout (machine-readable artifact)
 *   --check         exit non-zero unless both gates above hold
 *   --quick         smaller caps for CI smoke
 *   --sizes=N       suite sizes per domain (default 6)
 *   --max-dim=N     skip problems with n + m above this (default 6000)
 *   --max-iter=N    per-solve iteration budget (default 20000)
 *   --time-limit=S  per-solve wall-clock budget in seconds (default 5)
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "backends/backend_selector.hpp"
#include "backends/qp_backend.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"

namespace
{

using namespace rsqp;

struct Options
{
    bool json = false;
    bool check = false;
    Index sizesPerDomain = 6;
    Index maxDim = 6000;
    Index maxIter = 20000;
    Real timeLimit = 5.0;
};

Options
parseOptions(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            options.json = true;
        } else if (arg == "--check") {
            options.check = true;
        } else if (arg == "--quick") {
            options.maxDim = 5000;
            options.maxIter = 10000;
            options.timeLimit = 3.0;
        } else if (arg.rfind("--sizes=", 0) == 0) {
            options.sizesPerDomain =
                static_cast<Index>(std::stoi(arg.substr(8)));
        } else if (arg.rfind("--max-dim=", 0) == 0) {
            options.maxDim =
                static_cast<Index>(std::stoi(arg.substr(10)));
        } else if (arg.rfind("--max-iter=", 0) == 0) {
            options.maxIter =
                static_cast<Index>(std::stoi(arg.substr(11)));
        } else if (arg.rfind("--time-limit=", 0) == 0) {
            options.timeLimit = std::stod(arg.substr(13));
        } else {
            std::cerr << "unknown flag: " << arg << "\n"
                      << "flags: --json --check --quick --sizes=N "
                         "--max-dim=N --max-iter=N --time-limit=S\n";
            std::exit(2);
        }
    }
    return options;
}

/** One backend's run on one problem. */
struct BackendRun
{
    BackendKind kind = BackendKind::Admm;
    SolveStatus status = SolveStatus::Unsolved;
    Index iterations = 0;
    double solveSeconds = 0.0;
    Count restarts = 0;
    Real objective = 0.0;
    std::string finishedOn;  ///< telemetry.backend (Auto: the pick)
};

/** One problem's full sweep. */
struct ProblemRow
{
    std::string name;
    Index n = 0;
    Index m = 0;
    Count nnz = 0;
    BackendFeatures features;
    BackendKind selectorChoice = BackendKind::Admm;
    std::vector<BackendRun> runs;

    const BackendRun* find(BackendKind kind) const
    {
        for (const BackendRun& run : runs)
            if (run.kind == kind)
                return &run;
        return nullptr;
    }
};

BackendRun
runBackend(const QpProblem& qp, const OsqpSettings& base,
           BackendKind kind)
{
    OsqpSettings settings = base;
    settings.firstOrder.method = kind;
    std::unique_ptr<QpBackend> backend =
        makeBackend(qp, std::move(settings));
    const OsqpResult result = backend->solve();

    BackendRun run;
    run.kind = kind;
    run.status = result.info.status;
    run.iterations = result.info.iterations;
    run.solveSeconds = result.info.solveTime;
    run.restarts = result.info.telemetry.restarts;
    run.objective = result.info.objective;
    run.finishedOn = result.info.telemetry.backend;
    return run;
}

Real
iterationRatio(const BackendRun* admm, const BackendRun* pdhg)
{
    if (admm == nullptr || pdhg == nullptr || pdhg->iterations <= 0)
        return 0.0;
    if (pdhg->status != SolveStatus::Solved)
        return 0.0;
    return static_cast<Real>(admm->iterations) /
           static_cast<Real>(pdhg->iterations);
}

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parseOptions(argc, argv);

    OsqpSettings base;
    base.maxIter = options.maxIter;
    base.timeLimit = options.timeLimit;
    base.adaptiveRho = false;  // see file comment

    const std::vector<BackendKind> kinds = {
        BackendKind::Admm, BackendKind::Pdhg, BackendKind::Auto};

    std::vector<ProblemRow> rows;
    for (const ProblemSpec& spec :
         benchmarkSuite(options.sizesPerDomain)) {
        const QpProblem qp = spec.generate();
        if (qp.numVariables() + qp.numConstraints() > options.maxDim)
            continue;

        ProblemRow row;
        row.name = spec.name;
        row.n = qp.numVariables();
        row.m = qp.numConstraints();
        row.nnz = qp.totalNnz();
        row.features = computeBackendFeatures(qp);
        row.selectorChoice = chooseBackend(row.features);
        for (BackendKind kind : kinds)
            row.runs.push_back(runBackend(qp, base, kind));
        rows.push_back(std::move(row));
    }
    if (rows.empty()) {
        std::cerr << "no problems under --max-dim=" << options.maxDim
                  << "\n";
        return 1;
    }

    // Gate evaluation (see file comment).
    Index selector_pdhg_15x = 0;
    Index pdhg_2x = 0;
    for (const ProblemRow& row : rows) {
        const Real ratio = iterationRatio(row.find(BackendKind::Admm),
                                          row.find(BackendKind::Pdhg));
        if (ratio >= 2.0)
            ++pdhg_2x;
        if (row.selectorChoice == BackendKind::Pdhg && ratio >= 1.5)
            ++selector_pdhg_15x;
    }
    const bool gate_selector = selector_pdhg_15x >= 1;
    const bool gate_2x = pdhg_2x >= 1;

    if (options.json) {
        std::cout << "{\n"
                  << "  \"schema\": \"rsqp-bench-backends-v1\",\n"
                  << "  \"config\": {\"sizes_per_domain\": "
                  << options.sizesPerDomain
                  << ", \"max_dim\": " << options.maxDim
                  << ", \"max_iter\": " << options.maxIter
                  << ", \"time_limit\": "
                  << formatFixed(options.timeLimit, 3)
                  << ", \"adaptive_rho\": false, \"backends\": [";
        for (std::size_t k = 0; k < kinds.size(); ++k)
            std::cout << "\"" << backendKindName(kinds[k]) << "\""
                      << (k + 1 < kinds.size() ? ", " : "");
        std::cout << "]},\n"
                  << "  \"problems\": [\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const ProblemRow& row = rows[i];
            std::cout << "    {\"name\": \""
                      << bench::jsonEscape(row.name) << "\", \"n\": "
                      << row.n << ", \"m\": " << row.m
                      << ", \"nnz\": " << row.nnz
                      << ", \"equality_fraction\": "
                      << formatFixed(row.features.equalityFraction, 3)
                      << ", \"tall_ratio\": "
                      << formatFixed(row.features.tallRatio, 3)
                      << ", \"selector_choice\": \""
                      << backendKindName(row.selectorChoice)
                      << "\", \"admm_over_pdhg_iterations\": "
                      << formatFixed(
                             iterationRatio(
                                 row.find(BackendKind::Admm),
                                 row.find(BackendKind::Pdhg)),
                             3)
                      << ", \"runs\": [";
            for (std::size_t r = 0; r < row.runs.size(); ++r) {
                const BackendRun& run = row.runs[r];
                std::cout
                    << "{\"backend\": \"" << backendKindName(run.kind)
                    << "\", \"status\": \""
                    << statusToString(run.status)
                    << "\", \"iterations\": " << run.iterations
                    << ", \"solve_seconds\": "
                    << formatFixed(run.solveSeconds, 6)
                    << ", \"restarts\": " << run.restarts
                    << ", \"finished_on\": \""
                    << bench::jsonEscape(run.finishedOn)
                    << "\", \"objective\": "
                    << formatFixed(run.objective, 9) << "}"
                    << (r + 1 < row.runs.size() ? ", " : "");
            }
            std::cout << "]}" << (i + 1 < rows.size() ? "," : "")
                      << "\n";
        }
        std::cout << "  ],\n"
                  << "  \"summary\": {\"problems\": " << rows.size()
                  << ", \"selector_pdhg_1_5x_wins\": "
                  << selector_pdhg_15x
                  << ", \"pdhg_2x_wins\": " << pdhg_2x
                  << ", \"gates\": {\"selector_pdhg_1_5x\": "
                  << (gate_selector ? "true" : "false")
                  << ", \"pdhg_2x\": " << (gate_2x ? "true" : "false")
                  << "}}\n"
                  << "}\n";
    } else {
        std::cout << "# backend shoot-out (fixed-penalty sweep, "
                  << "max_iter=" << options.maxIter << ", time_limit="
                  << formatFixed(options.timeLimit, 1) << "s)\n";
        TextTable table({"problem", "n+m", "eq", "m/n", "selector",
                         "admm_it", "pdhg_it", "auto_it", "auto_on",
                         "admm/pdhg"});
        for (const ProblemRow& row : rows) {
            const BackendRun* admm = row.find(BackendKind::Admm);
            const BackendRun* pdhg = row.find(BackendKind::Pdhg);
            const BackendRun* auto_run = row.find(BackendKind::Auto);
            const auto iters = [](const BackendRun* run) {
                if (run == nullptr)
                    return std::string("-");
                if (run->status != SolveStatus::Solved)
                    return std::string(statusToString(run->status));
                return std::to_string(run->iterations);
            };
            table.addRow(
                {row.name, std::to_string(row.n + row.m),
                 formatFixed(row.features.equalityFraction, 2),
                 formatFixed(row.features.tallRatio, 2),
                 backendKindName(row.selectorChoice), iters(admm),
                 iters(pdhg), iters(auto_run),
                 auto_run != nullptr ? auto_run->finishedOn : "-",
                 formatFixed(iterationRatio(admm, pdhg), 2)});
        }
        table.print(std::cout);
        std::cout << "\n# gates: selector_pdhg_1_5x="
                  << (gate_selector ? "pass" : "FAIL")
                  << " (" << selector_pdhg_15x << " problems), pdhg_2x="
                  << (gate_2x ? "pass" : "FAIL") << " (" << pdhg_2x
                  << " problems)\n";
    }

    if (options.check && !(gate_selector && gate_2x)) {
        std::cerr << "backend perf gates failed: selector_pdhg_1_5x="
                  << selector_pdhg_15x << " pdhg_2x=" << pdhg_2x
                  << "\n";
        return 1;
    }
    return 0;
}
