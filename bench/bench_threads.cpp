/**
 * @file
 * Host-threading scaling study: wall clock and speedup versus thread
 * count for the threaded hot paths — the simulated SpMV engine
 * (lane-chain fan-out) and the parallel vector kernels (dot / axpy).
 * Concurrent independent solves are measured through the service by
 * bench_fleet and bench_service.
 *
 * Flags:
 *   --quick         small sizes / few reps (CI smoke)
 *   --csv           CSV instead of the aligned table
 *   --json          JSON array on stdout (machine-readable artifact)
 *   --threads=LIST  comma-separated thread counts (default 1,2,4,8)
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "arch/program_builder.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
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
        } else if (arg == "--csv") {
            options.csv = true;
        } else if (arg == "--json") {
            options.json = true;
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
                      << "flags: --quick --csv --json --threads=LIST\n";
            std::exit(2);
        }
    }
    if (options.threads.empty() || options.threads.front() != 1)
        options.threads.insert(options.threads.begin(), 1);
    return options;
}

/** Best-of-reps wall clock of fn(), in seconds. */
template <typename Fn>
double
timeBest(int reps, Fn&& fn)
{
    double best = 1e100;
    for (int r = 0; r < reps; ++r) {
        Timer timer;
        fn();
        best = std::min(best, timer.seconds());
    }
    return best;
}

struct Row
{
    std::string kernel;
    Index threads = 1;
    double seconds = 0.0;
    double speedup = 1.0;
};

/** Simulated SpMV: one large matrix, several applications per run. */
std::vector<Row>
benchSpmv(const Options& options)
{
    const Index scale = options.quick ? 120 : 400;
    const int spmvs = 8;
    const int reps = options.quick ? 3 : 8;

    const QpProblem qp = generateProblem(Domain::Svm, scale, 7);
    const CsrMatrix csr = CsrMatrix::fromCsc(qp.a);

    std::vector<Row> rows;
    for (Index threads : options.threads) {
        ArchConfig config;
        config.c = 64;
        config.structures = StructureSet::baseline(64);
        config.execution.numThreads = threads;
        Machine machine(config);

        const SparsityString str = encodeMatrix(csr, config.c);
        const Schedule schedule =
            scheduleString(str, config.structures);
        const PackedMatrix packed =
            packMatrix(csr, str, schedule, config.structures);
        const CvbPlan plan =
            fullDuplicationPlan(config.c, csr.cols());
        const Index mat = machine.addMatrix(packed, plan, "M");
        const Index v_in = machine.addVector(csr.cols());
        const Index v_out = machine.addVector(csr.rows());
        const Index hbm_in = machine.addHbmVector(
            Vector(static_cast<std::size_t>(csr.cols()), 1.0));

        ProgramBuilder asmb;
        asmb.loadVec(v_in, hbm_in);
        asmb.vecDup(mat, v_in);
        for (int k = 0; k < spmvs; ++k)
            asmb.spmv(v_out, mat);
        asmb.halt();
        const Program program = asmb.finish();

        Row row;
        row.kernel = "machine_spmv";
        row.threads = threads;
        row.seconds = timeBest(reps, [&] { machine.run(program); });
        rows.push_back(row);
    }
    return rows;
}

/** Parallel vector kernels on a large dense vector. */
std::vector<Row>
benchVectorOps(const Options& options)
{
    const Index n = options.quick ? (1 << 18) : (1 << 22);
    const int reps = options.quick ? 3 : 8;
    const int inner = 16;

    Rng rng(11);
    Vector x(static_cast<std::size_t>(n));
    Vector y(static_cast<std::size_t>(n));
    for (Real& v : x)
        v = rng.normal();
    for (Real& v : y)
        v = rng.normal();

    std::vector<Row> rows;
    for (Index threads : options.threads) {
        NumThreadsScope scope(threads);
        Row dot_row;
        dot_row.kernel = "vector_dot";
        dot_row.threads = threads;
        volatile Real sink = 0.0;
        dot_row.seconds = timeBest(reps, [&] {
            for (int k = 0; k < inner; ++k)
                sink = sink + dot(x, y);
        });
        rows.push_back(dot_row);

        Row axpy_row;
        axpy_row.kernel = "vector_axpy";
        axpy_row.threads = threads;
        axpy_row.seconds = timeBest(reps, [&] {
            for (int k = 0; k < inner; ++k)
                axpy(1.0 / 1024.0, x, y);
        });
        rows.push_back(axpy_row);
    }
    return rows;
}

void
fillSpeedups(std::vector<Row>& rows)
{
    std::map<std::string, double> serial;
    for (const Row& row : rows)
        if (row.threads == 1)
            serial[row.kernel] = row.seconds;
    for (Row& row : rows)
        if (row.seconds > 0.0 && serial.count(row.kernel) != 0)
            row.speedup = serial[row.kernel] / row.seconds;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parseOptions(argc, argv);

    std::vector<Row> rows = benchSpmv(options);
    const std::vector<Row> vec_rows = benchVectorOps(options);
    rows.insert(rows.end(), vec_rows.begin(), vec_rows.end());
    fillSpeedups(rows);

    if (options.json) {
        std::cout << "[\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row& row = rows[i];
            std::cout << "  {\"kernel\": \""
                      << bench::jsonEscape(row.kernel)
                      << "\", \"threads\": " << row.threads
                      << ", \"seconds\": "
                      << formatFixed(row.seconds, 6)
                      << ", \"speedup\": "
                      << formatFixed(row.speedup, 3) << "}"
                      << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        std::cout << "]\n";
        return 0;
    }

    TextTable table({"kernel", "threads", "seconds", "speedup"});
    for (const Row& row : rows)
        table.addRow({row.kernel, std::to_string(row.threads),
                      formatFixed(row.seconds, 6),
                      formatFixed(row.speedup, 2)});
    std::cout << "# threaded hot-path scaling (host threads: "
              << hardwareConcurrency() << " hardware)\n";
    if (options.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
