/**
 * @file
 * Fig. 10 reproduction: end-to-end solver speedup of the customized
 * architecture over the baseline generic design (paper: 1.4x-7.0x,
 * weakest on eqqp).
 */

#include <map>

#include "bench_util.hpp"

using namespace rsqp;
using namespace rsqp::bench;

int
main(int argc, char** argv)
{
    const BenchOptions options = parseOptions(argc, argv);

    TextTable table({"problem", "domain", "nnz", "base_ms", "custom_ms",
                     "speedup", "arch"});
    std::map<Domain, RunningStats> per_domain;
    RunningStats all;

    for (const ProblemSpec& spec :
         benchmarkSuite(options.sizesPerDomain)) {
        const ProblemMeasurement meas = measureProblem(spec, options);
        const Real speedup = meas.deviceBaseline.deviceSeconds /
            meas.deviceCustom.deviceSeconds;
        per_domain[spec.domain].add(speedup);
        all.add(speedup);
        table.addRow({meas.name, toString(meas.domain),
                      std::to_string(meas.nnz),
                      formatFixed(meas.deviceBaseline.deviceSeconds *
                                  1e3, 3),
                      formatFixed(meas.deviceCustom.deviceSeconds * 1e3,
                                  3),
                      formatFixed(speedup, 2),
                      meas.deviceCustomArch});
    }
    emitTable(table, options,
              "Fig. 10: solver speedup from problem-specific "
              "customization (C = " +
                  std::to_string(options.deviceC) + ")");

    std::cout << "speedup: min " << formatFixed(all.min(), 2)
              << "  mean " << formatFixed(all.mean(), 2) << "  max "
              << formatFixed(all.max(), 2) << "\n";
    std::cout << "per-domain mean:\n";
    for (const auto& [domain, stats] : per_domain)
        std::cout << "  " << toString(domain) << ": "
                  << formatFixed(stats.mean(), 2) << "\n";
    std::cout << "paper: 1.4x-7.0x; least on eqqp\n";
    return 0;
}
