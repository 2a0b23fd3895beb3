#include "layers.hpp"

#include <algorithm>
#include <numeric>

#include "backends/qp_backend.hpp"
#include "core/customization.hpp"
#include "core/rsqp_solver.hpp"
#include "hwmodel/resources.hpp"
#include "linalg/csr.hpp"
#include "linalg/kkt.hpp"
#include "osqp/scaling.hpp"
#include "service/fingerprint.hpp"
#include "solvers/pcg.hpp"

namespace perfbench
{

using namespace rsqp;

namespace
{

/** Median duration of `reps` spans named `name` around fn(). */
template <typename F>
double
medianOf(SpanRecorder& tracer, const char* name, int reps, F&& fn)
{
    std::vector<double> times;
    for (int r = 0; r < reps; ++r)
        times.push_back(timed(tracer, name, -1, fn));
    return median(times);
}

double
mean(const std::vector<double>& values)
{
    return values.empty()
        ? 0.0
        : std::accumulate(values.begin(), values.end(), 0.0) /
            static_cast<double>(values.size());
}

/** STREAM-style triad a = b + s*c over arrays far larger than the LLC;
 *  bytes counted as STREAM does (3 x 8 per element). */
double
streamTriadBytesPerSecond()
{
    const std::size_t n = std::size_t(1) << 22;
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    std::vector<double> times;
    for (int rep = 0; rep < 6; ++rep) {
        const Clock::time_point start = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            a[i] = b[i] + 3.0 * c[i];
        times.push_back(secondsBetween(start, Clock::now()));
        std::swap(a, b);
    }
    times.erase(times.begin());  // first pass faults the pages in
    return 24.0 * static_cast<double>(n) / median(times);
}

/** The per-constraint rho vector OSQP builds for a scaled problem. */
Vector
rhoVector(const QpProblem& scaled, const OsqpSettings& settings)
{
    Vector rho(scaled.l.size());
    for (std::size_t i = 0; i < rho.size(); ++i) {
        double r = settings.rho;
        if (scaled.l[i] <= -kInf && scaled.u[i] >= kInf)
            r = settings.rhoMin;
        else if (scaled.u[i] - scaled.l[i] < 1e-12)
            r = settings.rhoEqScale * settings.rho;
        rho[i] = std::clamp(r, settings.rhoMin, settings.rhoMax);
    }
    return rho;
}

/**
 * Compulsory bytes of one reduced-KKT apply: every matrix value and
 * index once, row pointers once, x read once per gather pass, rho and
 * the length-m scratch written then read, y read and written.
 */
double
kktApplyBytes(const QpProblem& scaled, Count p_full_nnz)
{
    const double n = scaled.numVariables();
    const double m = scaled.numConstraints();
    const double nnz = static_cast<double>(p_full_nnz + 2 * scaled.a.nnz());
    const double entry = sizeof(Real) + sizeof(Index);
    return nnz * entry + sizeof(Index) * (2 * n + m + 3) +
        sizeof(Real) * (2 * n + 3 * m + 2 * n);
}

void
hostLayers(const Workload& workload, SpanRecorder& tracer, LayerTimes& out)
{
    const OsqpSettings& settings = workload.sessions.front().osqp;
    std::vector<double> solve, pcg, pcgSelf, apply, p, a, at, bytes;
    for (const Structure& s : workload.structures) {
        std::unique_ptr<QpBackend> backend =
            makeBackend(s.request(0), settings);
        OsqpResult last = backend->solve();
        std::vector<double> warm;
        for (std::size_t v = 1; v < 4; ++v) {
            backend->updateLinearCost(s.variants[v].q);
            backend->updateBounds(s.variants[v].l, s.variants[v].u);
            backend->warmStart(last.x, last.y);
            warm.push_back(timed(tracer, "backends.solve", -1,
                                 [&] { last = backend->solve(); }));
        }
        solve.push_back(median(warm));

        QpProblem scaled = s.request(0);
        ruizEquilibrate(scaled, settings.scalingIterations);
        const ReducedKktOperator op(scaled.pUpper, scaled.a,
                                    settings.sigma,
                                    rhoVector(scaled, settings));
        const JacobiPreconditioner precond(op.diagonal());
        const std::size_t n = static_cast<std::size_t>(op.dim());
        Rng rng(17);
        Vector truth(n), b(n), x(n), y(n);
        for (double& v : truth)
            v = rng.normal();
        op.apply(truth, b);

        // A representative inner solve: cold start to the mid-range
        // tolerance of ADMM's adaptive PCG schedule.
        PcgSettings pcgSettings = settings.pcg;
        pcgSettings.adaptiveTolerance = false;
        pcgSettings.epsRel = 1e-4;
        PcgWorkspace workspace;
        PcgResult pcgResult;
        pcg.push_back(medianOf(tracer, "solvers.pcg", 3, [&] {
            std::fill(x.begin(), x.end(), 0.0);
            pcgResult = pcgSolve(op, precond, b, x, pcgSettings, workspace);
        }));

        const double applySeconds = medianOf(
            tracer, "linalg.kkt_apply", 30, [&] { op.apply(truth, y); });
        apply.push_back(applySeconds);
        // PCG's own vector work: the solve minus the operator applies
        // it made (one per iteration plus the initial residual).
        const double iters = std::max<Index>(1, pcgResult.iterations);
        pcgSelf.push_back(
            std::max(0.0, pcg.back() - (iters + 1) * applySeconds) / iters);
        const CsrMatrix pFull =
            CsrMatrix::fromCsc(scaled.pUpper.symUpperToFull());
        const CsrMatrix aCsr = CsrMatrix::fromCsc(scaled.a);
        const CsrMatrix atCsr = CsrMatrix::fromCsc(scaled.a.transpose());
        Vector xm(static_cast<std::size_t>(scaled.numConstraints()), 1.0);
        Vector outN, outM;
        p.push_back(medianOf(tracer, "linalg.spmv_p", 30,
                             [&] { pFull.spmv(truth, outN); }));
        a.push_back(medianOf(tracer, "linalg.spmv_a", 30,
                             [&] { aCsr.spmv(truth, outM); }));
        at.push_back(medianOf(tracer, "linalg.spmv_at", 30,
                              [&] { atCsr.spmv(xm, outN); }));
        bytes.push_back(kktApplyBytes(scaled, pFull.nnz()));
    }
    // Requests visit the structures round-robin, so the plain mean over
    // structures is the per-request mean.
    out.backendSolve = mean(solve);
    out.pcg = mean(pcg);
    out.pcgSelfPerIteration = mean(pcgSelf);
    out.kktApply = mean(apply);
    out.spmvP = mean(p);
    out.spmvA = mean(a);
    out.spmvAt = mean(at);
    out.kktApplyBytes = mean(bytes);
}

/** customizeProblem's stages, called one by one on the same input. */
void
customizeReplay(const QpProblem& scaled, const CustomizeSettings& custom,
                SpanRecorder& tracer, double& search, double& schedule,
                double& pack, double& cvb)
{
    const Clock::time_point start = Clock::now();
    const long root = tracer.add("core.customize_replay", start, start);
    const CsrMatrix pCsr = CsrMatrix::fromCsc(scaled.pUpper.symUpperToFull());
    const CsrMatrix aCsr = CsrMatrix::fromCsc(scaled.a);
    const CsrMatrix atCsr = CsrMatrix::fromCsc(scaled.a.transpose());
    CsrMatrix atSq = atCsr;
    for (Real& v : atSq.values())
        v *= v;
    const CsrMatrix* mats[] = {&pCsr, &aCsr, &atCsr, &atSq};

    std::vector<SparsityString> strs;
    StructureSet set = StructureSet::baseline(custom.c);
    search += timed(tracer, "encoding.search", root, [&] {
        for (const CsrMatrix* mat : mats)
            strs.push_back(encodeMatrix(*mat, custom.c));
        StructureSearchSettings settings = custom.search;
        const Index width = custom.c;
        settings.objective = [width](const StructureSet& candidate,
                                     Count slots) -> Real {
            ArchConfig probe;
            probe.c = width;
            probe.structures = candidate;
            return static_cast<Real>(slots) / estimateFmaxMhz(probe);
        };
        set = searchStructureSet({&strs[0], &strs[1], &strs[2]}, settings)
                  .set;
    });
    std::vector<Schedule> schedules;
    schedule += timed(tracer, "encoding.schedule", root, [&] {
        for (const SparsityString& str : strs)
            schedules.push_back(scheduleString(str, set));
    });
    std::vector<PackedMatrix> packed;
    pack += timed(tracer, "encoding.pack", root, [&] {
        for (std::size_t i = 0; i < strs.size(); ++i)
            packed.push_back(
                packMatrix(*mats[i], strs[i], schedules[i], set));
    });
    cvb += timed(tracer, "cvb.compress", root, [&] {
        for (const PackedMatrix& pm : packed)
            compressFirstFit(buildAccessRequirements(pm));
    });
    tracer.finish(root, Clock::now());
}

void
deviceLayers(const Workload& workload,
             const std::vector<std::uint32_t>& sample, bool rebuild,
             SpanRecorder& tracer, LayerTimes& out)
{
    const SessionConfig& config = workload.sessions.front();
    std::vector<double> customize, thaw, build, sim, rate, modeled, eta;
    double search = 0.0, schedule = 0.0, pack = 0.0, cvb = 0.0;
    for (std::uint32_t index : sample) {
        const QpProblem problem = workload.structures[index].request(0);
        std::shared_ptr<const CustomizationArtifact> artifact;
        if (rebuild) {
            QpProblem scaled = problem;
            ruizEquilibrate(scaled, config.osqp.scalingIterations);
            ProblemCustomization pc;
            customize.push_back(timed(tracer, "core.customize", -1, [&] {
                pc = customizeProblem(scaled, config.custom);
            }));
            customizeReplay(scaled, config.custom, tracer, search,
                            schedule, pack, cvb);
            artifact = std::make_shared<const CustomizationArtifact>(
                freezeCustomization(pc));
            const double thawSeconds =
                medianOf(tracer, "core.thaw", 3, [&] {
                    thawCustomization(scaled, *artifact, config.custom);
                });
            thaw.push_back(thawSeconds);
            const double construct =
                medianOf(tracer, "arch.construct", 3, [&] {
                    RsqpSolver solver(problem, config.osqp, config.custom,
                                      artifact);
                });
            build.push_back(construct - thawSeconds);
        }
        RsqpSolver solver(problem, config.osqp, config.custom, artifact);
        RsqpResult result;
        const int reps = rebuild ? 1 : 3;
        const double simSeconds = medianOf(tracer, "arch.sim", reps,
                                           [&] { result = solver.solve(); });
        sim.push_back(simSeconds);
        rate.push_back(
            static_cast<double>(result.machineStats.totalCycles) /
            simSeconds);
        modeled.push_back(result.deviceSeconds);
        eta.push_back(result.eta);
    }
    const double count = std::max<double>(1.0, sample.size());
    out.customize = mean(customize);
    out.search = search / count;
    out.schedule = schedule / count;
    out.pack = pack / count;
    out.cvb = cvb / count;
    out.thaw = mean(thaw);
    out.build = mean(build);
    out.sim = mean(sim);
    out.simCyclesPerSecond = mean(rate);
    out.modeledDevice = mean(modeled);
    out.eta = mean(eta);
}

} // namespace

LayerTimes
measureLayers(const Workload& workload,
              const std::vector<std::uint32_t>& rebuilt,
              SpanRecorder& tracer)
{
    LayerTimes out;
    std::vector<double> fingerprint;
    for (const Structure& s : workload.structures)
        fingerprint.push_back(medianOf(tracer, "service.fingerprint", 5, [&] {
            fingerprintStructure(s.base);
        }));
    out.fingerprint = mean(fingerprint);

    if (workload.name == "host_pcg_large") {
        hostLayers(workload, tracer, out);
    } else if (workload.name == "device_churn") {
        // Up to 12 distinct structures that took a rebuild route.
        std::vector<std::uint32_t> sample;
        for (std::uint32_t s : rebuilt)
            if (sample.size() < 12 &&
                std::find(sample.begin(), sample.end(), s) == sample.end())
                sample.push_back(s);
        deviceLayers(workload, sample, true, tracer, out);
    } else {
        std::vector<std::uint32_t> all(workload.structures.size());
        std::iota(all.begin(), all.end(), 0u);
        deviceLayers(workload, all, false, tracer, out);
    }
    out.streamBytesPerSecond = streamTriadBytesPerSecond();
    return out;
}

} // namespace perfbench
