/**
 * @file
 * File-based solver front end: export any benchmark instance to the
 * RSQP-QP container, or solve a problem file with a chosen backend —
 * the command-line workflow for feeding external problems into the
 * library.
 *
 * Usage:
 *   solve_file export <domain> <size> <path>    write a problem file
 *   solve_file solve <path> [direct|indirect|fpga]
 */

#include <cstdio>
#include <cstring>

#include "rsqp_api.hpp"

using namespace rsqp;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  solve_file export <domain> <size> <path>\n"
                 "  solve_file solve <path> [direct|indirect|fpga]\n"
                 "domains: control lasso huber portfolio svm eqqp\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 3)
        return usage();

    if (std::strcmp(argv[1], "export") == 0) {
        if (argc != 5)
            return usage();
        Domain domain = Domain::Svm;
        bool found = false;
        for (Domain d : allDomains())
            if (std::strcmp(argv[2], toString(d)) == 0) {
                domain = d;
                found = true;
            }
        if (!found)
            return usage();
        const Index size = std::atoi(argv[3]);
        const QpProblem qp = generateProblem(domain, size, 12345);
        saveQpProblem(argv[4], qp);
        std::printf("wrote %s: n=%d m=%d nnz=%lld\n", argv[4],
                    qp.numVariables(), qp.numConstraints(),
                    static_cast<long long>(qp.totalNnz()));
        return 0;
    }

    if (std::strcmp(argv[1], "solve") == 0) {
        const QpProblem qp = loadQpProblem(argv[2]);
        const char* backend = argc > 3 ? argv[3] : "direct";
        std::printf("loaded '%s': n=%d m=%d nnz=%lld\n",
                    qp.name.c_str(), qp.numVariables(),
                    qp.numConstraints(),
                    static_cast<long long>(qp.totalNnz()));

        OsqpSettings settings;
        settings.polish = true;
        Timer timer;
        if (std::strcmp(backend, "fpga") == 0) {
            settings.backend = KktBackend::IndirectPcg;
            CustomizeSettings custom;
            RsqpSolver solver(qp, settings, custom);
            const OsqpResult result = solver.solve();
            std::printf("fpga(%s): %s in %d iters, obj=%.8g\n"
                        "device time %.3f ms (%lld cycles @ %.0f MHz), "
                        "eta=%.3f, host wall %.1f ms\n",
                        solver.config().name().c_str(),
                        statusToString(result.info.status),
                        result.info.iterations, result.info.objective,
                        result.deviceSeconds * 1e3,
                        static_cast<long long>(
                            result.machineStats.totalCycles),
                        estimateFmaxMhz(solver.config()), result.eta,
                        timer.seconds() * 1e3);
            return result.info.status == SolveStatus::Solved ? 0 : 1;
        }
        settings.backend = std::strcmp(backend, "indirect") == 0
            ? KktBackend::IndirectPcg
            : KktBackend::DirectLdl;
        OsqpSolver solver(qp, settings);
        const OsqpResult result = solver.solve();
        std::printf("%s: %s in %d iters, obj=%.8g, prim=%.2e, "
                    "dual=%.2e, %.1f ms%s\n",
                    backend, statusToString(result.info.status),
                    result.info.iterations, result.info.objective,
                    result.info.primRes, result.info.dualRes,
                    result.info.solveTime * 1e3,
                    result.polish.adopted ? " (polished)" : "");
        return result.info.status == SolveStatus::Solved ? 0 : 1;
    }
    return usage();
}
