#include "solver.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "linalg/simd_kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/polish.hpp"
#include "osqp/residuals.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace rsqp
{

OsqpSolver::OsqpSolver(QpProblem problem, OsqpSettings settings)
    : settings_(std::move(settings))
{
    Timer setup_timer;

    // Malformed settings and malformed problem data are both *caller*
    // input, not programming errors: record the diagnostics and come
    // up inert so solve() returns a typed InvalidProblem result
    // instead of crashing.
    validation_ = validateSetup(problem, settings_);
    if (!validation_.ok()) {
        lastInfo_.status = SolveStatus::InvalidProblem;
        lastInfo_.setupTime = setup_timer.seconds();
        return;
    }

    qp_ = ScaledQp(std::move(problem), settings_.scalingIterations);
    n_ = qp_.original().numVariables();
    m_ = qp_.original().numConstraints();

    rhoBar_ = settings_.rho;
    sigmaEff_ = settings_.sigma;
    buildRhoVec(rhoBar_);
    rebuildKktSolver();

    x_.assign(static_cast<std::size_t>(n_), 0.0);
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    z_.assign(static_cast<std::size_t>(m_), 0.0);
    lastInfo_.setupTime = setup_timer.seconds();
}

OsqpSolver::~OsqpSolver() = default;

void
OsqpSolver::buildRhoVec(Real rho_bar)
{
    const QpProblem& scaled = qp_.scaled();
    rhoVec_.resize(static_cast<std::size_t>(m_));
    rhoInvVec_.resize(static_cast<std::size_t>(m_));
    for (Index i = 0; i < m_; ++i) {
        const Real lo = scaled.l[static_cast<std::size_t>(i)];
        const Real hi = scaled.u[static_cast<std::size_t>(i)];
        Real rho_i = rho_bar;
        if (lo <= -kInf && hi >= kInf) {
            // Loose constraint: keep its multiplier near zero.
            rho_i = settings_.rhoMin;
        } else if (hi - lo < 1e-12) {
            // Equality constraint: stiffer rho speeds convergence.
            rho_i = settings_.rhoEqScale * rho_bar;
        }
        rho_i = clampReal(rho_i, settings_.rhoMin, settings_.rhoMax);
        rhoVec_[static_cast<std::size_t>(i)] = rho_i;
        rhoInvVec_[static_cast<std::size_t>(i)] = 1.0 / rho_i;
    }
}

void
OsqpSolver::rebuildKktSolver()
{
    const QpProblem& scaled = qp_.scaled();
    kktFollowsChecks_ = false;
    switch (settings_.backend) {
      case KktBackend::DirectLdl:
        kkt_ = std::make_unique<DirectKktSolver>(
            scaled.pUpper, scaled.a, sigmaEff_, rhoVec_,
            settings_.ordering);
        break;
      case KktBackend::IndirectPcg:
        kkt_ = std::make_unique<IndirectKktSolver>(
            scaled.pUpper, scaled.a, sigmaEff_, rhoVec_, settings_.pcg);
        break;
    }
}

bool
OsqpSolver::warmStart(const Vector& x, const Vector& y)
{
    if (!validation_.ok())
        return false;  // inert solver: solve() reports InvalidProblem
    // Map the unscaled guess into scaled space; z follows from x.
    if (!qp_.scaleWarmStart(x, y, x_, y_))
        return false;
    qp_.scaled().a.spmv(x_, z_);
    return true;
}

void
OsqpSolver::updateLinearCost(const Vector& q)
{
    if (validation_.ok())
        qp_.setLinearCost(q);
}

void
OsqpSolver::updateBounds(const Vector& l, const Vector& u)
{
    if (validation_.ok())
        qp_.setBounds(l, u);
}

void
OsqpSolver::updateRho(Real rho_bar)
{
    if (!validation_.ok())
        return;
    if (rho_bar <= 0.0)
        RSQP_FATAL("rho must be positive, got ", rho_bar);
    rhoBar_ = clampReal(rho_bar, settings_.rhoMin, settings_.rhoMax);
    buildRhoVec(rhoBar_);
    kkt_->updateRho(rhoVec_);
}

void
OsqpSolver::updateMatrixValues(const std::vector<Real>& p_values,
                               const std::vector<Real>& a_values)
{
    if (!validation_.ok() || !qp_.setMatrixValues(p_values, a_values))
        return;
    // The backends reference the scaled matrices just rewritten;
    // refresh their execution forms in place when they can (same
    // sparsity pattern), rebuild from scratch otherwise.
    if (!kkt_->updateMatrixValues(qp_.scaled().pUpper.values(),
                                  qp_.scaled().a.values()))
        rebuildKktSolver();
}

bool
OsqpSolver::adaptRho(Real prim_res, Real dual_res, const Vector& x,
                     const Vector& y, const Vector& z)
{
    // Scaled residual ratio as in OSQP Section 5.2 (unscaled space).
    const QpProblem& original = qp_.original();
    Vector ax, px, aty;
    original.a.spmv(x, ax);
    original.pUpper.spmvSymUpper(x, px);
    original.a.spmvTranspose(y, aty);
    const Real prim_den = std::max(normInf(ax), normInf(z));
    const Real dual_den = std::max({normInf(px), normInf(aty),
                                    normInf(original.q)});
    const Real prim_rel = prim_res / std::max(prim_den, Real(1e-10));
    const Real dual_rel = dual_res / std::max(dual_den, Real(1e-10));
    const Real ratio = prim_rel / std::max(dual_rel, Real(1e-10));

    const Real rho_new =
        clampReal(rhoBar_ * std::sqrt(ratio), settings_.rhoMin,
                  settings_.rhoMax);
    if (rho_new > rhoBar_ * settings_.adaptiveRhoTolerance ||
        rho_new < rhoBar_ / settings_.adaptiveRhoTolerance) {
        rhoBar_ = rho_new;
        buildRhoVec(rhoBar_);
        kkt_->updateRho(rhoVec_);
        return true;
    }
    return false;
}

OsqpResult
OsqpSolver::solve()
{
    TELEMETRY_SPAN("admm.solve");
    Timer solve_timer;
    AccumulatingTimer kkt_timer;
    // Route the settings knob to the vector kernels and PCG below.
    NumThreadsScope threads_scope(settings_.execution.numThreads);

    OsqpResult result;
    OsqpInfo& info = result.info;
    info = lastInfo_;
    info.status = SolveStatus::MaxIterReached;
    info.iterations = 0;
    info.rhoUpdates = 0;
    info.pcgIterationsTotal = 0;
    info.recovery = RecoveryReport{};
    info.telemetry = SolveTelemetry{};

    if (!validation_.ok()) {
        result.validation = validation_;
        info.status = SolveStatus::InvalidProblem;
        info.solveTime = solve_timer.seconds();
        lastInfo_ = info;
        return result;
    }

    // A sigma boost from a previous solve's recovery is not sticky.
    if (sigmaEff_ != settings_.sigma) {
        sigmaEff_ = settings_.sigma;
        rebuildKktSolver();
    }

    DivergenceWatchdog watchdog;
    IterateCheckpoint checkpoint;
    Index recovery_attempts = 0;
    std::optional<Real> pcg_tolerance;

    Vector rhs_x(static_cast<std::size_t>(n_));
    Vector rhs_z(static_cast<std::size_t>(m_));
    Vector x_tilde, z_tilde;
    Vector x_prev, y_prev;
    Vector delta_x(static_cast<std::size_t>(n_));
    Vector delta_y(static_cast<std::size_t>(m_));
    Vector proj_arg(static_cast<std::size_t>(m_));

    const Real alpha = settings_.alpha;
    const QpProblem& original = qp_.original();
    const QpProblem& scaled = qp_.scaled();
    const Scaling& scaling = qp_.scaling();

    // Roll the iterates back to the last-good checkpoint (or a cold
    // start if none was taken yet).
    const auto roll_back = [&]() {
        if (checkpoint.valid()) {
            checkpoint.restore(x_, y_, z_);
        } else {
            x_.assign(static_cast<std::size_t>(n_), 0.0);
            y_.assign(static_cast<std::size_t>(m_), 0.0);
            z_.assign(static_cast<std::size_t>(m_), 0.0);
        }
    };

    // One checkpoint-restore + sigma-boost recovery attempt. Returns
    // false when the attempt budget is spent — the caller then
    // terminates with a typed failure.
    const auto try_recover = [&](Index iter, const char* trigger) {
        if (recovery_attempts >= kMaxRecoveryAttempts)
            return false;
        ++recovery_attempts;
        roll_back();
        sigmaEff_ *= kSigmaBoost;
        rebuildKktSolver();
        watchdog.reset();
        info.recovery.record(RecoveryAction::CheckpointRestore, iter,
                             std::string(trigger) + "; rolled back to " +
                                 (checkpoint.valid()
                                      ? "iteration " +
                                            std::to_string(
                                                checkpoint.iteration())
                                      : std::string("a cold start")));
        ++info.recovery.checkpointRestores;
        info.recovery.record(RecoveryAction::SigmaBoost, iter,
                             "sigma = " + std::to_string(sigmaEff_));
        ++info.recovery.sigmaBoosts;
        RSQP_WARN("admm recovery at iteration ", iter, ": ", trigger,
                  "; sigma boosted to ", sigmaEff_);
        return true;
    };

    for (Index iter = 1; iter <= settings_.maxIter; ++iter) {
        TELEMETRY_SPAN("admm.iter");
        // A wall-clock budget turns a hung or flailing solve into a
        // typed result instead of an unbounded stall.
        if (settings_.timeLimit > 0.0 &&
            solve_timer.seconds() >= settings_.timeLimit) {
            info.status = SolveStatus::TimeLimitReached;
            break;
        }

        x_prev = x_;
        y_prev = y_;

        // Step 3: solve the (reduced) KKT system.
        parallelForRange(n_, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                rhs_x[static_cast<std::size_t>(j)] =
                    sigmaEff_ * x_[static_cast<std::size_t>(j)] -
                    scaled.q[static_cast<std::size_t>(j)];
        });
        parallelForRange(m_, [&](Index ib, Index ie) {
            for (Index i = ib; i < ie; ++i)
                rhs_z[static_cast<std::size_t>(i)] =
                    z_[static_cast<std::size_t>(i)] -
                    rhoInvVec_[static_cast<std::size_t>(i)] *
                        y_[static_cast<std::size_t>(i)];
        });
        kkt_timer.start();
        const KktSolveStats kstats =
            kkt_->solve(rhs_x, rhs_z, x_tilde, z_tilde);
        kkt_timer.stop();
        ++info.telemetry.kktSolves;
        info.pcgIterationsTotal += kstats.pcgIterations;
        if (kstats.usedFallback) {
            info.recovery.record(RecoveryAction::PcgDirectFallback, iter,
                                 toString(kstats.pcgBreakdown));
            ++info.recovery.pcgFallbacks;
        }

        // Steps 5-7: relaxation, projection, dual update.
        parallelForRange(n_, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                x_[static_cast<std::size_t>(j)] =
                    alpha * x_tilde[static_cast<std::size_t>(j)] +
                    (1.0 - alpha) * x_[static_cast<std::size_t>(j)];
        });
        parallelForRange(m_, [&](Index ib, Index ie) {
            for (Index i = ib; i < ie; ++i) {
                const auto s = static_cast<std::size_t>(i);
                const Real z_relaxed =
                    alpha * z_tilde[s] + (1.0 - alpha) * z_[s];
                proj_arg[s] = z_relaxed + rhoInvVec_[s] * y_[s];
                const Real z_next =
                    clampReal(proj_arg[s], scaled.l[s], scaled.u[s]);
                y_[s] += rhoVec_[s] * (z_relaxed - z_next);
                z_[s] = z_next;
            }
        });

        info.iterations = iter;

        const bool check_now = (iter % settings_.checkInterval == 0) ||
            iter == settings_.maxIter;
        const bool adapt_now = settings_.adaptiveRho &&
            settings_.adaptiveRhoInterval > 0 &&
            (iter % settings_.adaptiveRhoInterval == 0);
        if (!check_now && !adapt_now)
            continue;

        if (hasNonFinite(x_) || hasNonFinite(y_) || hasNonFinite(z_)) {
            if (try_recover(iter, "non-finite iterates"))
                continue;
            roll_back();  // never hand back a poisoned iterate
            info.status = SolveStatus::NumericalError;
            break;
        }

        // Unscale the iterates for residuals and certificates.
        Vector x_u, y_u, z_u;
        qp_.unscale(x_, y_, z_, x_u, y_u, z_u);
        const ResidualInfo res = computeResiduals(
            original, x_u, y_u, z_u, settings_.epsAbs, settings_.epsRel);
        info.primRes = res.primRes;
        info.dualRes = res.dualRes;
        info.telemetry.pushResidual(iter, res.primRes, res.dualRes);

        if (settings_.recordTrace) {
            IterationRecord rec;
            rec.iteration = iter;
            rec.primRes = res.primRes;
            rec.dualRes = res.dualRes;
            rec.rho = rhoBar_;
            rec.pcgIterations = kstats.pcgIterations;
            result.trace.push_back(rec);
        }

        const DivergenceWatchdog::Verdict verdict =
            watchdog.observe(res.primRes, res.dualRes);
        if (verdict == DivergenceWatchdog::Verdict::Diverged) {
            if (try_recover(iter, "residual divergence"))
                continue;
            roll_back();
            info.status = SolveStatus::NumericalError;
            break;
        }
        if (verdict == DivergenceWatchdog::Verdict::Stalled) {
            // One recovery shot; out of attempts the solve just runs
            // to its iteration budget.
            if (try_recover(iter, "residual stall"))
                continue;
        } else if (verdict == DivergenceWatchdog::Verdict::Ok) {
            checkpoint.capture(x_, y_, z_, iter);
        }
        // A backend that has finished a solve stops PCG at a tolerance
        // tied to the latest check; a fresh one runs its first solve on
        // the cold schedule, as the device does, and gets the last
        // check's tolerance at the end (the direct backend ignores it).
        pcg_tolerance = pcgResidualTolerance(res.primRes, res.dualRes);
        if (kktFollowsChecks_)
            kkt_->setTolerance(*pcg_tolerance);

        if (check_now) {
            if (res.converged()) {
                info.status = SolveStatus::Solved;
                break;
            }
            // Infeasibility certificates from the iterate deltas.
            for (Index j = 0; j < n_; ++j)
                delta_x[static_cast<std::size_t>(j)] =
                    scaling.d[static_cast<std::size_t>(j)] *
                    (x_[static_cast<std::size_t>(j)] -
                     x_prev[static_cast<std::size_t>(j)]);
            for (Index i = 0; i < m_; ++i) {
                const auto s = static_cast<std::size_t>(i);
                delta_y[s] = scaling.cInv * scaling.e[s] *
                    (y_[s] - y_prev[s]);
            }
            if (checkPrimalInfeasibility(original, delta_y,
                                         settings_.epsPrimInf)) {
                info.status = SolveStatus::PrimalInfeasible;
                break;
            }
            if (checkDualInfeasibility(original, delta_x,
                                       settings_.epsDualInf)) {
                info.status = SolveStatus::DualInfeasible;
                break;
            }
        }

        if (adapt_now &&
            adaptRho(res.primRes, res.dualRes, x_u, y_u, z_u))
            ++info.rhoUpdates;
    }

    if (pcg_tolerance) {
        kkt_->setTolerance(*pcg_tolerance);
        kktFollowsChecks_ = true;
    }

    // Exit paths that break out between termination checks (time
    // limit, iteration cap) may carry iterates that went non-finite
    // after the last screen — never return them.
    if (hasNonFinite(x_) || hasNonFinite(y_) || hasNonFinite(z_)) {
        roll_back();
        if (info.status != SolveStatus::TimeLimitReached)
            info.status = SolveStatus::NumericalError;
    }

    // Final unscaled solution.
    qp_.unscale(x_, y_, z_, result.x, result.y, result.z);
    info.objective = original.objective(result.x);

    if (settings_.polish && info.status == SolveStatus::Solved)
        result.polish = polishSolution(original, settings_, result);

    info.solveTime = solve_timer.seconds();
    info.kktSolveTime = kkt_timer.totalSeconds();

    // Per-solve telemetry record + process-wide aggregates. The
    // registry adds happen once per solve (never per iteration), so
    // their cost is invisible next to even one KKT step.
    SolveTelemetry& tele = info.telemetry;
    tele.backend = name();
    tele.iterations = info.iterations;
    tele.pcgIterationsTotal = info.pcgIterationsTotal;
    tele.pcgItersPerSolve = tele.kktSolves > 0
        ? static_cast<Real>(tele.pcgIterationsTotal) /
            static_cast<Real>(tele.kktSolves)
        : 0.0;
    tele.isaLevel = isaLevelName(simd::activeIsaLevel());
    tele.recoveryEvents =
        static_cast<Count>(info.recovery.events.size());
    tele.solveSeconds = info.solveTime;
    {
        using telemetry::MetricsRegistry;
        MetricsRegistry& registry = MetricsRegistry::global();
        static telemetry::Counter& solves = registry.counter(
            "rsqp_admm_solves_total", "Completed OsqpSolver::solve "
            "calls");
        static telemetry::Counter& iterations = registry.counter(
            "rsqp_admm_iterations_total", "ADMM iterations executed");
        static telemetry::Counter& pcg_iterations = registry.counter(
            "rsqp_admm_pcg_iterations_total",
            "Inner PCG iterations executed");
        static telemetry::Counter& rho_updates = registry.counter(
            "rsqp_admm_rho_updates_total", "Adaptive-rho refactors");
        static telemetry::Counter& recoveries = registry.counter(
            "rsqp_admm_recovery_events_total",
            "Watchdog/fallback recovery actions");
        static telemetry::Histogram& solve_ns = registry.histogram(
            "rsqp_admm_solve_ns", "Wall-clock nanoseconds per solve");
        static telemetry::Counter& backend_solves = registry.counter(
            "rsqp_backend_solves_total{backend=\"admm\"}",
            "Completed solves per first-order backend");
        static telemetry::Counter& backend_iterations = registry.counter(
            "rsqp_backend_iterations_total{backend=\"admm\"}",
            "First-order iterations per backend");
        solves.increment();
        iterations.add(static_cast<std::uint64_t>(info.iterations));
        backend_solves.increment();
        backend_iterations.add(
            static_cast<std::uint64_t>(info.iterations));
        pcg_iterations.add(
            static_cast<std::uint64_t>(info.pcgIterationsTotal));
        rho_updates.add(static_cast<std::uint64_t>(info.rhoUpdates));
        recoveries.add(
            static_cast<std::uint64_t>(tele.recoveryEvents));
        solve_ns.observe(
            static_cast<std::uint64_t>(info.solveTime * 1e9));
    }

    lastInfo_ = info;
    return result;
}

} // namespace rsqp
