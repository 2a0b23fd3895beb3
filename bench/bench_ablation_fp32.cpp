/**
 * @file
 * Precision ablation: the physical RSQP MAC trees compute in FP32.
 * This harness runs the simulated accelerator with the FP32 datapath
 * against the FP64 reference, comparing iteration counts, objective
 * error and termination at the paper's tolerances (cuOSQP made the
 * same choice on the GPU). The closing summary is computed from the
 * rows: solved count per precision, the problems whose status
 * differs, and the fp32/fp64 iteration ratio where both solve.
 */

#include "bench_util.hpp"

using namespace rsqp;
using namespace rsqp::bench;

int
main(int argc, char** argv)
{
    BenchOptions options = parseOptions(argc, argv);
    if (options.sizesPerDomain == 6)
        options.sizesPerDomain = 3;

    // FP32 accumulation floors the achievable PCG accuracy, so the
    // tolerances follow the paper's defaults (1e-3) and the PCG floor
    // sits above single-precision noise.
    OsqpSettings settings = benchSettings(options);
    settings.epsAbs = 1e-3;
    settings.epsRel = 1e-3;
    settings.pcg.epsRel = 1e-6;

    TextTable table({"problem", "domain", "fp64_iters", "fp32_iters",
                     "fp64_status", "fp32_status", "obj_rel_err"});
    Index rows = 0, solved64 = 0, solved32 = 0, both_solved = 0;
    Real ratio_min = kInf, ratio_max = 0.0;
    std::string disagreements;
    for (const ProblemSpec& spec :
         benchmarkSuite(options.sizesPerDomain)) {
        const QpProblem qp = spec.generate();
        if (qp.totalNnz() > 300000)
            continue;  // keep the ablation quick

        CustomizeSettings cfg64;
        cfg64.c = options.deviceC;
        RsqpSolver fp64(qp, settings, cfg64);
        const OsqpResult r64 = fp64.solve();

        CustomizeSettings cfg32;
        cfg32.c = options.deviceC;
        cfg32.fp32Datapath = true;
        RsqpSolver fp32(qp, settings, cfg32);
        const OsqpResult r32 = fp32.solve();

        const Real rel_err =
            std::abs(r32.info.objective - r64.info.objective) /
            (1.0 + std::abs(r64.info.objective));
        table.addRow({spec.name, toString(spec.domain),
                      std::to_string(r64.info.iterations),
                      std::to_string(r32.info.iterations),
                      statusToString(r64.info.status),
                      statusToString(r32.info.status),
                      formatSci(rel_err, 1)});

        const bool ok64 = r64.info.status == SolveStatus::Solved;
        const bool ok32 = r32.info.status == SolveStatus::Solved;
        ++rows;
        solved64 += ok64 ? 1 : 0;
        solved32 += ok32 ? 1 : 0;
        if (r64.info.status != r32.info.status) {
            if (!disagreements.empty())
                disagreements += ", ";
            disagreements += spec.name + " (fp64 " +
                statusToString(r64.info.status) + ", fp32 " +
                statusToString(r32.info.status) + ")";
        }
        if (ok64 && ok32 && r64.info.iterations > 0) {
            ++both_solved;
            const Real ratio = static_cast<Real>(r32.info.iterations) /
                static_cast<Real>(r64.info.iterations);
            ratio_min = std::min(ratio_min, ratio);
            ratio_max = std::max(ratio_max, ratio);
        }
    }
    emitTable(table, options,
              "FP32 vs FP64 datapath on the simulated accelerator");
    std::cout << "solved: fp64 " << solved64 << " of " << rows
              << ", fp32 " << solved32 << " of " << rows << "\n"
              << "status differs: "
              << (disagreements.empty() ? "none" : disagreements) << "\n";
    if (both_solved > 0)
        std::cout << "fp32/fp64 iterations where both solve: "
                  << formatFixed(ratio_min, 2) << "-"
                  << formatFixed(ratio_max, 2) << "x over " << both_solved
                  << " problems\n";
    return 0;
}
