#include "rsqp_solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "hwmodel/resources.hpp"
#include "linalg/vector_ops.hpp"
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
    : settings_(std::move(settings))
{
    // Malformed settings or problem data leave the solver inert
    // (machine_ stays null); solve() then reports a typed
    // InvalidProblem result with the diagnostics instead of crashing
    // the deployment flow.
    validation_ = validateSetup(problem, settings_);
    if (!validation_.ok())
        return;
    // The device loop checks termination every checkInterval
    // iterations, so align maxIter (and the rho interval).
    const Index ci = settings_.checkInterval;
    settings_.maxIter = ((settings_.maxIter + ci - 1) / ci) * ci;
    if (settings_.adaptiveRho &&
        settings_.adaptiveRhoInterval % ci != 0) {
        settings_.adaptiveRhoInterval =
            ((settings_.adaptiveRhoInterval + ci - 1) / ci) * ci;
    }

    qp_ = ScaledQp(std::move(problem), settings_.scalingIterations);
    const QpProblem& scaled = qp_.scaled();

    if (artifact != nullptr &&
        artifact->compatibleWith(scaled, custom)) {
        // Cache hit: the frozen structures/schedules/CVB plans apply
        // verbatim; only the value-dependent packing runs.
        custom_ = thawCustomization(scaled, *artifact, custom);
        customizationReused_ = true;
    } else {
        if (artifact != nullptr)
            RSQP_WARN("customization artifact incompatible with "
                      "problem '", qp_.original().name,
                      "'; running the full pipeline");
        custom_ = customizeProblem(scaled, custom);
    }

    ArchConfig config = custom_.config;
    machine_ = std::make_unique<Machine>(config);
    mats_.p = machine_->addMatrix(custom_.p.packed, custom_.p.plan, "P");
    mats_.a = machine_->addMatrix(custom_.a.packed, custom_.a.plan, "A");
    mats_.at =
        machine_->addMatrix(custom_.at.packed, custom_.at.plan, "At");
    mats_.atSq = machine_->addMatrix(custom_.atSq.packed,
                                     custom_.atSq.plan, "AtSq");
    prog_ = buildOsqpProgram(*machine_, mats_, scaled, qp_.scaling(),
                             settings_);
}

bool
RsqpSolver::warmStart(const Vector& x, const Vector& y)
{
    if (machine_ == nullptr)
        return false;  // inert solver: solve() reports InvalidProblem
    Vector xs, ys, zs;
    if (!qp_.scaleWarmStart(x, y, xs, ys))
        return false;
    qp_.scaled().a.spmv(xs, zs);
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
    qp_.setLinearCost(q);
    machine_->setHbmVector(prog_.hbmQ, qp_.scaled().q);
}

void
RsqpSolver::updateBounds(const Vector& l, const Vector& u)
{
    if (machine_ == nullptr)
        return;
    qp_.setBounds(l, u);
    const QpProblem& scaled = qp_.scaled();
    machine_->setHbmVector(prog_.hbmL, scaled.l);
    machine_->setHbmVector(prog_.hbmU, scaled.u);

    // Constraint classes (equality / loose / regular) may change with
    // the bounds; refresh the device's rho class multipliers to keep
    // parity with OsqpSolver::buildRhoVec.
    Vector rho_scale(scaled.l.size(), 1.0);
    for (std::size_t s = 0; s < rho_scale.size(); ++s) {
        if (scaled.l[s] <= -kInf && scaled.u[s] >= kInf)
            rho_scale[s] = 0.0;
        else if (scaled.u[s] - scaled.l[s] < 1e-12)
            rho_scale[s] = settings_.rhoEqScale;
    }
    machine_->setHbmVector(prog_.hbmRhoScale, std::move(rho_scale));
}

void
RsqpSolver::updateMatrixValues(const std::vector<Real>& p_values,
                               const std::vector<Real>& a_values)
{
    if (machine_ == nullptr || !qp_.setMatrixValues(p_values, a_values))
        return;
    const QpProblem& scaled = qp_.scaled();

    // Re-pack the affected matrices on the existing schedules and
    // rewrite the HBM streams (structure unchanged).
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
               CsrMatrix::fromCsc(scaled.pUpper.symUpperToFull()),
               mats_.p);
        // diag(P_scaled) + sigma feeds the on-device preconditioner.
        Vector diag_p_sigma = scaled.pUpper.diagonalVector();
        for (Real& v : diag_p_sigma)
            v += settings_.sigma;
        machine_->setHbmVector(prog_.hbmDiagP, std::move(diag_p_sigma));
    }
    if (!a_values.empty()) {
        repack(custom_.a, CsrMatrix::fromCsc(scaled.a), mats_.a);
        CsrMatrix at = CsrMatrix::fromCsc(scaled.a.transpose());
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

    const QpProblem& original = qp_.original();
    const Index n = original.numVariables();
    const Index m = original.numConstraints();

    // Casting a non-finite or out-of-range float to an integer is
    // undefined behavior, so the counter registers are clamped before
    // the casts below. The device program only ever adds 1 to them, so
    // they hold small integers and the clamp never changes a value.
    const auto scalar_or = [&](Index id, Real fallback) {
        const Real v = machine_->scalarValue(id);
        return std::isfinite(v) ? clampReal(v, 0.0, 1e12) : fallback;
    };

    machine_->resetStats();
    machine_->run(prog_.program);

    const Vector& xs = machine_->hbmValue(prog_.hbmXOut);
    const Vector& ys = machine_->hbmValue(prog_.hbmYOut);
    const Vector& zs = machine_->hbmValue(prog_.hbmZOut);
    qp_.unscale(xs, ys, zs, result.x, result.y, result.z);

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

    // The device has no watchdog: a diverging run (an indefinite P
    // that passes validation, say) overflows its iterates. Hand back
    // finite zeros with a typed failure, never a poisoned vector.
    if (hasNonFinite(result.x) || hasNonFinite(result.y) ||
        hasNonFinite(result.z)) {
        result.x.assign(static_cast<std::size_t>(n), 0.0);
        result.y.assign(static_cast<std::size_t>(m), 0.0);
        result.z.assign(static_cast<std::size_t>(m), 0.0);
        info.primRes = kInf;
        info.dualRes = kInf;
        info.status = SolveStatus::NumericalError;
    }

    info.objective = original.objective(result.x);
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
        solves.increment();
        iters.add(static_cast<std::uint64_t>(
            std::max<Index>(info.iterations, 0)));
    }
    return result;
}

} // namespace rsqp
