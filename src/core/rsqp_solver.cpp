#include "rsqp_solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "hwmodel/resources.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/residuals.hpp"
#include "osqp/validate.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace rsqp
{

RsqpSolver::RsqpSolver(QpProblem problem, OsqpSettings settings,
                       CustomizeSettings custom)
    : RsqpSolver(std::move(problem), std::move(settings),
                 std::move(custom), nullptr)
{}

RsqpSolver::RsqpSolver(
    QpProblem problem, OsqpSettings settings, CustomizeSettings custom,
    std::shared_ptr<const CustomizationArtifact> artifact)
    : original_(std::move(problem)), settings_(std::move(settings))
{
    // Malformed problem data leaves the solver inert (machine_ stays
    // null); solve() then reports a typed InvalidProblem result with
    // the diagnostics instead of crashing the deployment flow.
    validation_ = validateProblem(original_);
    if (!validation_.ok()) {
        RSQP_WARN("problem '", original_.name,
                  "' failed validation:\n", validation_.describe());
        return;
    }
    // The device loop checks termination every checkInterval
    // iterations, so align maxIter (and the rho interval).
    const Index ci = settings_.checkInterval;
    settings_.maxIter = ((settings_.maxIter + ci - 1) / ci) * ci;
    if (settings_.adaptiveRho &&
        settings_.adaptiveRhoInterval % ci != 0) {
        settings_.adaptiveRhoInterval =
            ((settings_.adaptiveRhoInterval + ci - 1) / ci) * ci;
    }

    scaled_ = original_;
    scaling_ = ruizEquilibrate(scaled_, settings_.scalingIterations);

    if (artifact != nullptr &&
        artifact->compatibleWith(scaled_, custom)) {
        // Cache hit: the frozen structures/schedules/CVB plans apply
        // verbatim; only the value-dependent packing runs.
        custom_ = thawCustomization(scaled_, *artifact, custom);
        customizationReused_ = true;
    } else {
        if (artifact != nullptr)
            RSQP_WARN("customization artifact incompatible with "
                      "problem '", original_.name,
                      "'; running the full pipeline");
        custom_ = customizeProblem(scaled_, custom);
    }

    ArchConfig config = custom_.config;
    machine_ = std::make_unique<Machine>(config);
    mats_.p = machine_->addMatrix(custom_.p.packed, custom_.p.plan, "P");
    mats_.a = machine_->addMatrix(custom_.a.packed, custom_.a.plan, "A");
    mats_.at =
        machine_->addMatrix(custom_.at.packed, custom_.at.plan, "At");
    mats_.atSq = machine_->addMatrix(custom_.atSq.packed,
                                     custom_.atSq.plan, "AtSq");
    prog_ = buildOsqpProgram(*machine_, mats_, scaled_, scaling_,
                             settings_);
}

bool
RsqpSolver::warmStart(const Vector& x, const Vector& y)
{
    if (machine_ == nullptr)
        return false;  // inert solver: solve() reports InvalidProblem
    const Index n = original_.numVariables();
    const Index m = original_.numConstraints();
    if (static_cast<Index>(x.size()) != n ||
        static_cast<Index>(y.size()) != m) {
        // A malformed client guess must not take the solver down; the
        // next solve simply starts cold.
        RSQP_WARN("warmStart ignored: got sizes (", x.size(), ", ",
                  y.size(), "), expected (", n, ", ", m, ")");
        return false;
    }
    Vector xs(static_cast<std::size_t>(n));
    Vector ys(static_cast<std::size_t>(m));
    for (Index j = 0; j < n; ++j)
        xs[static_cast<std::size_t>(j)] =
            scaling_.dInv[static_cast<std::size_t>(j)] *
            x[static_cast<std::size_t>(j)];
    for (Index i = 0; i < m; ++i)
        ys[static_cast<std::size_t>(i)] = scaling_.c *
            scaling_.eInv[static_cast<std::size_t>(i)] *
            y[static_cast<std::size_t>(i)];
    Vector zs;
    scaled_.a.spmv(xs, zs);
    machine_->setHbmVector(prog_.hbmX0, std::move(xs));
    machine_->setHbmVector(prog_.hbmY0, std::move(ys));
    machine_->setHbmVector(prog_.hbmZ0, std::move(zs));
    return true;
}

void
RsqpSolver::updateLinearCost(const Vector& q)
{
    if (machine_ == nullptr)
        return;
    const Index n = original_.numVariables();
    RSQP_ASSERT(static_cast<Index>(q.size()) == n, "q size mismatch");
    original_.q = q;
    for (Index j = 0; j < n; ++j)
        scaled_.q[static_cast<std::size_t>(j)] = scaling_.c *
            scaling_.d[static_cast<std::size_t>(j)] *
            q[static_cast<std::size_t>(j)];
    machine_->setHbmVector(prog_.hbmQ, scaled_.q);
}

void
RsqpSolver::updateBounds(const Vector& l, const Vector& u)
{
    if (machine_ == nullptr)
        return;
    const Index m = original_.numConstraints();
    RSQP_ASSERT(static_cast<Index>(l.size()) == m &&
                static_cast<Index>(u.size()) == m, "bound size mismatch");
    for (Index i = 0; i < m; ++i)
        if (l[static_cast<std::size_t>(i)] > u[static_cast<std::size_t>(i)])
            RSQP_FATAL("updateBounds: l > u at constraint ", i);
    original_.l = l;
    original_.u = u;
    for (Index i = 0; i < m; ++i) {
        const auto s = static_cast<std::size_t>(i);
        scaled_.l[s] = (l[s] <= -kInf) ? l[s] : scaling_.e[s] * l[s];
        scaled_.u[s] = (u[s] >= kInf) ? u[s] : scaling_.e[s] * u[s];
    }
    machine_->setHbmVector(prog_.hbmL, scaled_.l);
    machine_->setHbmVector(prog_.hbmU, scaled_.u);

    // Constraint classes (equality / loose / regular) may change with
    // the bounds; refresh the device's rho class multipliers to keep
    // parity with OsqpSolver::buildRhoVec.
    Vector rho_scale(static_cast<std::size_t>(m), 1.0);
    for (Index i = 0; i < m; ++i) {
        const auto s = static_cast<std::size_t>(i);
        if (scaled_.l[s] <= -kInf && scaled_.u[s] >= kInf)
            rho_scale[s] = 0.0;
        else if (scaled_.u[s] - scaled_.l[s] < 1e-12)
            rho_scale[s] = settings_.rhoEqScale;
    }
    machine_->setHbmVector(prog_.hbmRhoScale, std::move(rho_scale));
}

void
RsqpSolver::updateMatrixValues(const std::vector<Real>& p_values,
                               const std::vector<Real>& a_values)
{
    if (machine_ == nullptr)
        return;
    const Index n = original_.numVariables();
    // 1. Update the unscaled data and re-apply the fixed scaling,
    //    exactly as the host solver does.
    if (!p_values.empty()) {
        RSQP_ASSERT(p_values.size() == original_.pUpper.values().size(),
                    "P value count mismatch");
        original_.pUpper.values() = p_values;
        auto& scaled_vals = scaled_.pUpper.values();
        const auto& col_ptr = scaled_.pUpper.colPtr();
        const auto& row_idx = scaled_.pUpper.rowIdx();
        for (Index c = 0; c < n; ++c)
            for (Index p = col_ptr[c]; p < col_ptr[c + 1]; ++p)
                scaled_vals[static_cast<std::size_t>(p)] = scaling_.c *
                    scaling_.d[static_cast<std::size_t>(row_idx[p])] *
                    scaling_.d[static_cast<std::size_t>(c)] *
                    p_values[static_cast<std::size_t>(p)];
    }
    if (!a_values.empty()) {
        RSQP_ASSERT(a_values.size() == original_.a.values().size(),
                    "A value count mismatch");
        original_.a.values() = a_values;
        auto& scaled_vals = scaled_.a.values();
        const auto& col_ptr = scaled_.a.colPtr();
        const auto& row_idx = scaled_.a.rowIdx();
        for (Index c = 0; c < n; ++c)
            for (Index p = col_ptr[c]; p < col_ptr[c + 1]; ++p)
                scaled_vals[static_cast<std::size_t>(p)] =
                    scaling_.e[static_cast<std::size_t>(row_idx[p])] *
                    scaling_.d[static_cast<std::size_t>(c)] *
                    a_values[static_cast<std::size_t>(p)];
    }
    if (p_values.empty() && a_values.empty())
        return;

    // 2. Re-pack the affected matrices on the existing schedules and
    //    rewrite the HBM streams (structure unchanged).
    const StructureSet& set = custom_.config.structures;
    auto repack = [&](MatrixArtifacts& artifacts, CsrMatrix csr,
                      Index mat_id) {
        artifacts.csr = std::move(csr);
        artifacts.packed = packMatrix(artifacts.csr, artifacts.str,
                                      artifacts.schedule, set);
        machine_->updateMatrixValues(mat_id, artifacts.packed);
    };
    if (!p_values.empty()) {
        repack(custom_.p,
               CsrMatrix::fromCsc(scaled_.pUpper.symUpperToFull()),
               mats_.p);
        // diag(P_scaled) + sigma feeds the on-device preconditioner.
        Vector diag_p_sigma = scaled_.pUpper.diagonalVector();
        for (Real& v : diag_p_sigma)
            v += settings_.sigma;
        machine_->setHbmVector(prog_.hbmDiagP, std::move(diag_p_sigma));
    }
    if (!a_values.empty()) {
        repack(custom_.a, CsrMatrix::fromCsc(scaled_.a), mats_.a);
        CsrMatrix at = CsrMatrix::fromCsc(scaled_.a.transpose());
        CsrMatrix at_sq = at;
        for (Real& v : at_sq.values())
            v *= v;
        repack(custom_.at, std::move(at), mats_.at);
        repack(custom_.atSq, std::move(at_sq), mats_.atSq);
    }
}

OsqpResult
RsqpSolver::solve()
{
    TELEMETRY_SPAN("device.run");
    Timer solve_timer;
    OsqpResult result;
    OsqpInfo& info = result.info;
    if (!validation_.ok()) {
        result.validation = validation_;
        info.status = SolveStatus::InvalidProblem;
        return result;
    }

    const Index n = original_.numVariables();
    const Index m = original_.numConstraints();

    // A corrupted device run can leave any scalar register non-finite;
    // screen before the (undefined-behavior) float->int casts below.
    const auto scalar_or = [&](Index id, Real fallback) {
        const Real v = machine_->scalarValue(id);
        return std::isfinite(v) ? clampReal(v, 0.0, 1e12) : fallback;
    };

    machine_->resetStats();

    // Under fault injection the run is retried once: each run() draws
    // a fresh deterministic fault pattern, so a transient soft error
    // does not condemn the solve. Cycle counts accumulate across
    // attempts — the retry cost is real device time.
    const FaultInjector* injector = machine_->faultInjector();
    const Index max_attempts = injector != nullptr ? 2 : 1;
    const Count faults_before =
        injector != nullptr ? injector->faultsInjected() : 0;

    for (Index attempt = 1; attempt <= max_attempts; ++attempt) {
        machine_->run(prog_.program);

        const Vector& xs = machine_->hbmValue(prog_.hbmXOut);
        const Vector& ys = machine_->hbmValue(prog_.hbmYOut);
        const Vector& zs = machine_->hbmValue(prog_.hbmZOut);
        result.x.resize(static_cast<std::size_t>(n));
        result.y.resize(static_cast<std::size_t>(m));
        result.z.resize(static_cast<std::size_t>(m));
        for (Index j = 0; j < n; ++j)
            result.x[static_cast<std::size_t>(j)] =
                scaling_.d[static_cast<std::size_t>(j)] *
                xs[static_cast<std::size_t>(j)];
        for (Index i = 0; i < m; ++i) {
            const auto s = static_cast<std::size_t>(i);
            result.y[s] = scaling_.cInv * scaling_.e[s] * ys[s];
            result.z[s] = scaling_.eInv[s] * zs[s];
        }

        info.status = machine_->scalarValue(prog_.sStatus) > 0.5
            ? SolveStatus::Solved
            : SolveStatus::MaxIterReached;
        info.iterations =
            static_cast<Index>(scalar_or(prog_.sIterations, 0.0));
        info.pcgIterationsTotal =
            static_cast<Count>(scalar_or(prog_.sPcgTotal, 0.0));
        info.rhoUpdates =
            static_cast<Index>(scalar_or(prog_.sRhoUpdates, 0.0));
        info.primRes = machine_->scalarValue(prog_.sPrimRes);
        info.dualRes = machine_->scalarValue(prog_.sDualRes);

        bool healthy = !(hasNonFinite(result.x) ||
                         hasNonFinite(result.y) ||
                         hasNonFinite(result.z));
        if (healthy && injector != nullptr &&
            info.status == SolveStatus::Solved) {
            // The device's own convergence verdict rides on registers
            // the injector may have corrupted — re-verify on the host.
            const ResidualInfo res = computeResiduals(
                original_, result.x, result.y, result.z,
                settings_.epsAbs, settings_.epsRel);
            info.primRes = res.primRes;
            info.dualRes = res.dualRes;
            healthy = res.converged();
        }
        if (healthy)
            break;

        if (attempt < max_attempts) {
            info.recovery.record(
                RecoveryAction::FaultRetry, info.iterations,
                "device run returned non-finite or unverifiable "
                "results");
            ++info.recovery.faultRetries;
            continue;
        }

        // Out of retries: hand back finite zeros with a typed failure,
        // never a poisoned vector.
        result.x.assign(static_cast<std::size_t>(n), 0.0);
        result.y.assign(static_cast<std::size_t>(m), 0.0);
        result.z.assign(static_cast<std::size_t>(m), 0.0);
        info.primRes = kInf;
        info.dualRes = kInf;
        info.status = SolveStatus::NumericalError;
    }

    info.objective = original_.objective(result.x);
    info.solveTime = solve_timer.seconds();

    result.machineStats = machine_->stats();
    result.deviceSeconds =
        static_cast<Real>(result.machineStats.totalCycles) /
        (estimateFmaxMhz(custom_.config) * 1e6);
    result.eta = custom_.eta();

    SolveTelemetry& tele = info.telemetry;
    tele.backend = name();
    tele.iterations = info.iterations;
    tele.kktSolves = static_cast<Count>(info.iterations);
    tele.pcgIterationsTotal = info.pcgIterationsTotal;
    if (info.iterations > 0)
        tele.pcgItersPerSolve =
            static_cast<Real>(info.pcgIterationsTotal) /
            static_cast<Real>(info.iterations);
    tele.pushResidual(info.iterations, info.primRes, info.dualRes);
    tele.recoveryEvents =
        static_cast<Count>(info.recovery.events.size());
    // The injector counts over the machine's lifetime; report this
    // solve's share, as the host engines do.
    tele.faultsInjected = injector != nullptr
        ? injector->faultsInjected() - faults_before
        : 0;
    tele.solveSeconds = info.solveTime;

    {
        static telemetry::Counter& solves =
            telemetry::MetricsRegistry::global().counter(
                "rsqp_device_solves_total",
                "Accelerated (simulated-device) solves completed");
        static telemetry::Counter& iters =
            telemetry::MetricsRegistry::global().counter(
                "rsqp_device_iterations_total",
                "ADMM iterations executed on the simulated device");
        static telemetry::Counter& retries =
            telemetry::MetricsRegistry::global().counter(
                "rsqp_device_fault_retries_total",
                "Device runs retried after corrupted results");
        solves.increment();
        iters.add(static_cast<std::uint64_t>(
            std::max<Index>(info.iterations, 0)));
        retries.add(static_cast<std::uint64_t>(
            std::max<Count>(info.recovery.faultRetries, 0)));
    }
    return result;
}

} // namespace rsqp
