/**
 * @file
 * google-benchmark microbenchmarks of the customization-flow kernels:
 * sparsity encoding, LZW dictionary, scheduler, First-Fit CVB
 * compression, CSR SpMV and the simulated SpMV engine — plus a
 * forced-ISA sweep of the vectorized PCG kernels (dot, fused CG
 * updates, preconditioner apply, CSR SpMV) registered once per
 * supported kernel level so one invocation yields the scalar-vs-SIMD
 * comparison. The benchmark context records the detected, compiled
 * and active ISA levels for the JSON artifact.
 */

#include <benchmark/benchmark.h>

#include "arch/cpu_features.hpp"
#include "arch/program_builder.hpp"
#include "common/thread_pool.hpp"
#include "core/rsqp.hpp"
#include "linalg/simd_kernels.hpp"
#include "linalg/vector_ops.hpp"

namespace
{

using namespace rsqp;

CsrMatrix
benchMatrix(Index scale)
{
    const QpProblem qp = generateProblem(Domain::Svm, scale, 7);
    return CsrMatrix::fromCsc(qp.a);
}

void
BM_EncodeMatrix(benchmark::State& state)
{
    const CsrMatrix csr = benchMatrix(static_cast<Index>(state.range(0)));
    for (auto _ : state) {
        SparsityString str = encodeMatrix(csr, 64);
        benchmark::DoNotOptimize(str.encoded.data());
    }
    state.SetItemsProcessed(state.iterations() * csr.rows());
}
BENCHMARK(BM_EncodeMatrix)->Arg(50)->Arg(200);

void
BM_LzwDictionary(benchmark::State& state)
{
    const CsrMatrix csr = benchMatrix(static_cast<Index>(state.range(0)));
    const SparsityString str = encodeMatrix(csr, 64);
    for (auto _ : state) {
        auto dict = lzwDictionary(str.encoded);
        benchmark::DoNotOptimize(dict.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(str.length()));
}
BENCHMARK(BM_LzwDictionary)->Arg(50)->Arg(200);

void
BM_Scheduler(benchmark::State& state)
{
    const CsrMatrix csr = benchMatrix(static_cast<Index>(state.range(0)));
    const SparsityString str = encodeMatrix(csr, 64);
    StructureSearchSettings settings;
    settings.targetSize = 4;
    const StructureSet set = searchStructureSet(str, settings).set;
    for (auto _ : state) {
        Schedule schedule = scheduleString(str, set);
        benchmark::DoNotOptimize(schedule.slots.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(str.length()));
}
BENCHMARK(BM_Scheduler)->Arg(50)->Arg(200);

void
BM_StructureSearch(benchmark::State& state)
{
    const CsrMatrix csr = benchMatrix(static_cast<Index>(state.range(0)));
    const SparsityString str = encodeMatrix(csr, 64);
    for (auto _ : state) {
        StructureSearchSettings settings;
        settings.targetSize = 4;
        auto result = searchStructureSet(str, settings);
        benchmark::DoNotOptimize(&result);
    }
}
BENCHMARK(BM_StructureSearch)->Arg(50)->Arg(100);

void
BM_FirstFitCvb(benchmark::State& state)
{
    const CsrMatrix csr = benchMatrix(static_cast<Index>(state.range(0)));
    const SparsityString str = encodeMatrix(csr, 64);
    const StructureSet set = StructureSet::baseline(64);
    const Schedule schedule = scheduleString(str, set);
    const PackedMatrix packed = packMatrix(csr, str, schedule, set);
    const AccessRequirements req = buildAccessRequirements(packed);
    for (auto _ : state) {
        CvbPlan plan = compressFirstFit(req);
        benchmark::DoNotOptimize(plan.address.data());
    }
    state.SetItemsProcessed(state.iterations() * req.length);
}
BENCHMARK(BM_FirstFitCvb)->Arg(50)->Arg(200);

void
BM_CsrSpmv(benchmark::State& state)
{
    const CsrMatrix csr = benchMatrix(static_cast<Index>(state.range(0)));
    Rng rng(1);
    Vector x(static_cast<std::size_t>(csr.cols()));
    for (Real& v : x)
        v = rng.normal();
    Vector y;
    for (auto _ : state) {
        csr.spmv(x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * csr.nnz());
}
BENCHMARK(BM_CsrSpmv)->Arg(50)->Arg(200)->Arg(500);

void
BM_LdlFactor(benchmark::State& state)
{
    const QpProblem qp =
        generateProblem(Domain::Portfolio,
                        static_cast<Index>(state.range(0)), 7);
    Vector rho(static_cast<std::size_t>(qp.numConstraints()), 0.1);
    KktAssembler assembler(qp.pUpper, qp.a, 1e-6, rho);
    LdlFactorization ldl(assembler.kkt());
    for (auto _ : state) {
        const bool ok = ldl.factor(assembler.kkt());
        benchmark::DoNotOptimize(ok);
    }
}
BENCHMARK(BM_LdlFactor)->Arg(100)->Arg(400);

void
BM_OsqpSolveIndirect(benchmark::State& state)
{
    const QpProblem qp = generateProblem(
        Domain::Lasso, static_cast<Index>(state.range(0)), 7);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    for (auto _ : state) {
        OsqpSolver solver(qp, settings);
        OsqpResult result = solver.solve();
        benchmark::DoNotOptimize(result.x.data());
    }
}
BENCHMARK(BM_OsqpSolveIndirect)->Arg(20)->Arg(60);

void
BM_SimulatedSolve(benchmark::State& state)
{
    const QpProblem qp = generateProblem(
        Domain::Portfolio, static_cast<Index>(state.range(0)), 7);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    for (auto _ : state) {
        CustomizeSettings custom;
        custom.c = 64;
        RsqpSolver solver(qp, settings, custom);
        OsqpResult result = solver.solve();
        benchmark::DoNotOptimize(result.x.data());
    }
}
BENCHMARK(BM_SimulatedSolve)->Arg(40);


void
BM_PackMatrix(benchmark::State& state)
{
    const CsrMatrix csr = benchMatrix(static_cast<Index>(state.range(0)));
    const SparsityString str = encodeMatrix(csr, 64);
    const StructureSet set = StructureSet::baseline(64);
    const Schedule schedule = scheduleString(str, set);
    for (auto _ : state) {
        PackedMatrix packed = packMatrix(csr, str, schedule, set);
        benchmark::DoNotOptimize(packed.packs.data());
    }
    state.SetItemsProcessed(state.iterations() * csr.nnz());
}
BENCHMARK(BM_PackMatrix)->Arg(50)->Arg(200);

void
BM_RuizEquilibrate(benchmark::State& state)
{
    const QpProblem qp = generateProblem(
        Domain::Lasso, static_cast<Index>(state.range(0)), 7);
    for (auto _ : state) {
        QpProblem copy = qp;
        Scaling scaling = ruizEquilibrate(copy, 10);
        benchmark::DoNotOptimize(scaling.d.data());
    }
    state.SetItemsProcessed(state.iterations() * qp.totalNnz());
}
BENCHMARK(BM_RuizEquilibrate)->Arg(50)->Arg(200);

void
BM_MachineVectorEngine(benchmark::State& state)
{
    // Throughput of the simulated vector engine (functional cost of
    // one axpby instruction on an n-length buffer).
    ArchConfig config;
    config.c = 64;
    config.structures = StructureSet::baseline(64);
    Machine machine(config);
    const Index n = static_cast<Index>(state.range(0));
    const Index v0 = machine.addVector(n);
    const Index v1 = machine.addVector(n);
    const Index hbm = machine.addHbmVector(Vector(
        static_cast<std::size_t>(n), 1.5));
    ProgramBuilder asmb;
    asmb.loadConst(0, 2.0);
    asmb.loadConst(1, 0.5);
    asmb.loadVec(v0, hbm);
    for (int k = 0; k < 64; ++k)
        asmb.vecAxpby(v1, 0, v0, 1, v0);
    asmb.halt();
    const Program program = asmb.finish();
    for (auto _ : state) {
        machine.resetStats();
        machine.run(program);
        benchmark::DoNotOptimize(machine.stats().totalCycles);
    }
    state.SetItemsProcessed(state.iterations() * 64 * n);
}
BENCHMARK(BM_MachineVectorEngine)->Arg(1024)->Arg(16384);

void
BM_ParallelDot(benchmark::State& state)
{
    // dot() thread scaling; range(0) is the thread count, range(1)
    // the vector length (above/below kParallelThreshold).
    NumThreadsScope scope(static_cast<Index>(state.range(0)));
    Rng rng(3);
    Vector x(static_cast<std::size_t>(state.range(1)));
    Vector y(x.size());
    for (Real& v : x)
        v = rng.normal();
    for (Real& v : y)
        v = rng.normal();
    for (auto _ : state) {
        const Real value = dot(x, y);
        benchmark::DoNotOptimize(value);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(x.size()));
}
BENCHMARK(BM_ParallelDot)
    ->Args({1, 1 << 20})
    ->Args({2, 1 << 20})
    ->Args({4, 1 << 20})
    ->Args({8, 1 << 20})
    ->Args({8, 4096});

void
BM_ParallelAxpy(benchmark::State& state)
{
    NumThreadsScope scope(static_cast<Index>(state.range(0)));
    Rng rng(4);
    Vector x(static_cast<std::size_t>(state.range(1)));
    Vector y(x.size());
    for (Real& v : x)
        v = rng.normal();
    for (Real& v : y)
        v = rng.normal();
    for (auto _ : state) {
        axpy(1.0 / 4096.0, x, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<long>(x.size()));
}
BENCHMARK(BM_ParallelAxpy)
    ->Args({1, 1 << 20})
    ->Args({4, 1 << 20})
    ->Args({8, 1 << 20});

void
BM_ThreadedMachineSpmv(benchmark::State& state)
{
    // The simulated SpMV engine with the lane-chain fan-out enabled;
    // range(0) is ArchConfig::numThreads.
    const CsrMatrix csr = benchMatrix(200);
    ArchConfig config;
    config.c = 64;
    config.structures = StructureSet::baseline(64);
    config.execution.numThreads = static_cast<Index>(state.range(0));
    Machine machine(config);
    const SparsityString str = encodeMatrix(csr, config.c);
    const Schedule schedule = scheduleString(str, config.structures);
    const PackedMatrix packed =
        packMatrix(csr, str, schedule, config.structures);
    const Index mat = machine.addMatrix(
        packed, fullDuplicationPlan(config.c, csr.cols()), "M");
    const Index v_in = machine.addVector(csr.cols());
    const Index v_out = machine.addVector(csr.rows());
    const Index hbm_in = machine.addHbmVector(
        Vector(static_cast<std::size_t>(csr.cols()), 1.0));
    ProgramBuilder asmb;
    asmb.loadVec(v_in, hbm_in);
    asmb.vecDup(mat, v_in);
    asmb.spmv(v_out, mat);
    asmb.halt();
    const Program program = asmb.finish();
    for (auto _ : state) {
        machine.run(program);
        benchmark::DoNotOptimize(machine.stats().totalCycles);
    }
    state.SetItemsProcessed(state.iterations() * csr.nnz());
}
BENCHMARK(BM_ThreadedMachineSpmv)->Arg(1)->Arg(4)->Arg(8);

void
BM_SolutionPolish(benchmark::State& state)
{
    const QpProblem qp = generateProblem(
        Domain::Portfolio, static_cast<Index>(state.range(0)), 7);
    OsqpSettings settings;
    OsqpSolver solver(qp, settings);
    OsqpResult result = solver.solve();
    for (auto _ : state) {
        OsqpResult copy = result;
        PolishReport report = polishSolution(qp, settings, copy);
        benchmark::DoNotOptimize(&report);
    }
}
BENCHMARK(BM_SolutionPolish)->Arg(60)->Arg(200);

/**
 * Forced-ISA sweep of the vectorized PCG kernels. Registered from
 * main() once per level in supportedIsaLevels(), so the benchmark
 * names carry the level ("ForcedIsaDot/scalar", ".../avx2", ...) and
 * one run compares every level on this host. Single-threaded: the
 * sweep isolates lane-level speedup from thread scaling.
 */
void
registerForcedIsaBenchmarks(IsaLevel level)
{
    const std::string suffix = isaLevelName(level);
    constexpr Index kLen = 1 << 20;

    benchmark::RegisterBenchmark(
        ("ForcedIsaDot/" + suffix).c_str(),
        [level](benchmark::State& state) {
            NumThreadsScope scope(1);
            simd::forceIsaLevel(level);
            Rng rng(3);
            Vector x(kLen), y(kLen);
            for (Real& v : x)
                v = rng.normal();
            for (Real& v : y)
                v = rng.normal();
            for (auto _ : state) {
                const Real value = dot(x, y);
                benchmark::DoNotOptimize(value);
            }
            simd::resetIsaLevel();
            state.SetItemsProcessed(state.iterations() *
                                    static_cast<long>(x.size()));
        });

    benchmark::RegisterBenchmark(
        ("ForcedIsaFusedUpdate/" + suffix).c_str(),
        [level](benchmark::State& state) {
            // x -= alpha p fused with r·Kp — the CG descent update.
            NumThreadsScope scope(1);
            simd::forceIsaLevel(level);
            Rng rng(5);
            Vector p(kLen), x(kLen), kp(kLen), r(kLen);
            for (Vector* vec : {&p, &x, &kp, &r})
                for (Real& v : *vec)
                    v = rng.normal();
            for (auto _ : state) {
                const Real value =
                    xMinusAlphaPDot(1e-9, p, x, kp, r);
                benchmark::DoNotOptimize(value);
            }
            simd::resetIsaLevel();
            state.SetItemsProcessed(state.iterations() *
                                    static_cast<long>(p.size()));
        });

    benchmark::RegisterBenchmark(
        ("ForcedIsaPrecondApply/" + suffix).c_str(),
        [level](benchmark::State& state) {
            NumThreadsScope scope(1);
            simd::forceIsaLevel(level);
            Rng rng(7);
            Vector inv_diag(kLen), r(kLen), d(kLen);
            for (Real& v : inv_diag)
                v = 1.0 + std::abs(rng.normal());
            for (Real& v : r)
                v = rng.normal();
            for (auto _ : state) {
                const Real value = precondApplyDot(inv_diag, r, d);
                benchmark::DoNotOptimize(value);
            }
            simd::resetIsaLevel();
            state.SetItemsProcessed(state.iterations() *
                                    static_cast<long>(r.size()));
        });

    benchmark::RegisterBenchmark(
        ("ForcedIsaCsrSpmv/" + suffix).c_str(),
        [level](benchmark::State& state) {
            NumThreadsScope scope(1);
            simd::forceIsaLevel(level);
            const CsrMatrix csr = benchMatrix(200);
            Rng rng(9);
            Vector x(static_cast<std::size_t>(csr.cols()));
            for (Real& v : x)
                v = rng.normal();
            Vector y;
            for (auto _ : state) {
                csr.spmv(x, y);
                benchmark::DoNotOptimize(y.data());
            }
            simd::resetIsaLevel();
            state.SetItemsProcessed(state.iterations() * csr.nnz());
        });
}

} // namespace

int
main(int argc, char** argv)
{
    benchmark::AddCustomContext("rsqp_isa_detected",
                                isaLevelName(detectedIsaLevel()));
    benchmark::AddCustomContext("rsqp_isa_compiled",
                                isaLevelName(compiledIsaLevel()));
    benchmark::AddCustomContext("rsqp_isa_active",
                                isaLevelName(simd::activeIsaLevel()));
    for (IsaLevel level : supportedIsaLevels())
        registerForcedIsaBenchmarks(level);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
