#include "backends/pdhg_solver.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "linalg/simd_kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/residuals.hpp"
#include "osqp/validate.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace rsqp
{

namespace
{

/** Deterministic pseudo-random unit vector for power iteration. */
void
seedPowerVector(Vector& v, std::size_t size)
{
    v.resize(size);
    // xorshift with a fixed seed: reproducible on every platform and
    // never orthogonal to the dominant eigenvector in practice.
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < size; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        v[i] = 2.0 * (static_cast<Real>(state >> 11) /
                      static_cast<Real>(1ULL << 53)) -
            1.0;
    }
}

} // namespace

PdhgSolver::PdhgSolver(QpProblem problem, OsqpSettings settings)
    : settings_(std::move(settings))
{
    Timer setup_timer;

    validation_ = validateSetup(problem, settings_);
    if (!validation_.ok()) {
        lastInfo_.status = SolveStatus::InvalidProblem;
        lastInfo_.setupTime = setup_timer.seconds();
        return;
    }

    qp_ = ScaledQp(std::move(problem), settings_.scalingIterations);
    n_ = qp_.original().numVariables();
    m_ = qp_.original().numConstraints();

    rebuildMirrors();
    estimateOperatorNorms();
    omega_ = initialPrimalWeight();
    applyStepSizes();

    x_.assign(static_cast<std::size_t>(n_), 0.0);
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    lastInfo_.setupTime = setup_timer.seconds();
}

void
PdhgSolver::rebuildMirrors()
{
    const QpProblem& scaled = qp_.scaled();
    aCsr_ = CsrMatrix::fromCsc(scaled.a);
    atCsr_ = CsrMatrix::fromCsc(scaled.a.transpose());
    pCsr_ = CsrMatrix::fromCsc(scaled.pUpper.symUpperToFull());
}

void
PdhgSolver::estimateOperatorNorms()
{
    const Index sweeps = settings_.firstOrder.pdhg.powerIterations;
    const Real margin = settings_.firstOrder.pdhg.stepSafety;

    // ||A||_2 via power iteration on A'A.
    if (m_ > 0 && qp_.scaled().a.nnz() > 0) {
        Vector v, av, atav;
        seedPowerVector(v, static_cast<std::size_t>(n_));
        Real lam = 0.0;
        for (Index k = 0; k < sweeps; ++k) {
            const Real nv = norm2(v);
            if (!(nv > 0.0))
                break;
            scale(v, 1.0 / nv);
            aCsr_.spmv(v, av);
            atCsr_.spmv(av, atav);
            lam = norm2(atav);  // Rayleigh bound ||A'Av|| >= lambda
            v = atav;
        }
        etaA_ = std::max(std::sqrt(std::max(lam, Real(0.0))) * margin,
                         Real(1e-12));
    } else {
        etaA_ = 1e-12;
    }

    // lambda_max(P) via power iteration on the full symmetric mirror.
    if (pCsr_.nnz() > 0) {
        Vector v, pv;
        seedPowerVector(v, static_cast<std::size_t>(n_));
        Real lam = 0.0;
        for (Index k = 0; k < sweeps; ++k) {
            const Real nv = norm2(v);
            if (!(nv > 0.0))
                break;
            scale(v, 1.0 / nv);
            pCsr_.spmv(v, pv);
            lam = norm2(pv);
            v = pv;
        }
        lamP_ = std::max(lam, Real(0.0)) * margin;
    } else {
        lamP_ = 0.0;
    }
}

void
PdhgSolver::applyStepSizes()
{
    // sigma = omega / ||A||; tau from the Condat–Vũ condition
    // tau (lam_P/2 + sigma ||A||^2) <= 1 with the safety margin.
    const Real margin = settings_.firstOrder.pdhg.stepSafety;
    sigma_ = omega_ / etaA_;
    tau_ = 1.0 / (margin * (0.5 * lamP_ + omega_ * etaA_));
}

Real
PdhgSolver::initialPrimalWeight() const
{
    const Real configured = settings_.firstOrder.pdhg.primalWeight;
    const Real cap = settings_.firstOrder.pdhg.primalWeightMax;
    if (configured > 0.0)
        return clampReal(configured, 1.0 / cap, cap);
    // PDLP-style data-driven default: balance the primal gradient
    // magnitude against the bound magnitude (infinite bounds excluded).
    const QpProblem& scaled = qp_.scaled();
    const Real nq = norm2(scaled.q);
    Real nb = 0.0;
    for (Index i = 0; i < m_; ++i) {
        const Real lo = scaled.l[static_cast<std::size_t>(i)];
        const Real hi = scaled.u[static_cast<std::size_t>(i)];
        if (lo > -kInf)
            nb += lo * lo;
        if (hi < kInf)
            nb += hi * hi;
    }
    nb = std::sqrt(nb);
    if (!(nq > 0.0) || !(nb > 0.0))
        return 1.0;
    return clampReal(nq / nb, 1.0 / cap, cap);
}

bool
PdhgSolver::warmStart(const Vector& x, const Vector& y)
{
    return validation_.ok() && qp_.scaleWarmStart(x, y, x_, y_);
}

void
PdhgSolver::updateLinearCost(const Vector& q)
{
    if (validation_.ok())
        qp_.setLinearCost(q);
}

void
PdhgSolver::updateBounds(const Vector& l, const Vector& u)
{
    if (validation_.ok())
        qp_.setBounds(l, u);
}

void
PdhgSolver::updateMatrixValues(const std::vector<Real>& p_values,
                               const std::vector<Real>& a_values)
{
    if (!validation_.ok() || !qp_.setMatrixValues(p_values, a_values))
        return;
    // New operator values change the valid step sizes too.
    rebuildMirrors();
    estimateOperatorNorms();
    applyStepSizes();
}

OsqpResult
PdhgSolver::solve()
{
    TELEMETRY_SPAN("pdhg.solve");
    Timer solve_timer;
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

    const PdhgConfig& cfg = settings_.firstOrder.pdhg;
    const QpProblem& original = qp_.original();
    const QpProblem& scaled = qp_.scaled();

    DivergenceWatchdog watchdog;
    IterateCheckpoint checkpoint;
    Index recovery_attempts = 0;
    Count restarts = 0;

    // Scratch (sized once; the loop itself allocates nothing).
    Vector px(static_cast<std::size_t>(n_));
    Vector aty(static_cast<std::size_t>(n_));
    Vector x_next(static_cast<std::size_t>(n_));
    Vector x_bar(static_cast<std::size_t>(n_));
    Vector ax(static_cast<std::size_t>(m_));
    Vector x_u(static_cast<std::size_t>(n_));
    Vector y_u(static_cast<std::size_t>(m_));
    Vector z_u(static_cast<std::size_t>(m_));
    Vector ax_u(static_cast<std::size_t>(m_));
    Vector delta_x(static_cast<std::size_t>(n_));
    Vector delta_y(static_cast<std::size_t>(m_));

    // Epoch state: running average since the last restart, the
    // restart anchor, and the merit recorded at the restart point.
    Vector x_sum(static_cast<std::size_t>(n_), 0.0);
    Vector y_sum(static_cast<std::size_t>(m_), 0.0);
    Vector x_anchor = x_;
    Vector y_anchor = y_;
    Index epoch_len = 0;
    Real restart_merit = kInf;
    Index warmups_done = 0;

    // Deltas between consecutive termination checks feed the
    // infeasibility certificates (the PDHG iterate difference
    // converges to the certificate ray on infeasible problems).
    Vector x_u_prev, y_u_prev;
    bool have_prev_check = false;

    const auto reset_epoch = [&]() {
        std::fill(x_sum.begin(), x_sum.end(), 0.0);
        std::fill(y_sum.begin(), y_sum.end(), 0.0);
        x_anchor = x_;
        y_anchor = y_;
        epoch_len = 0;
    };

    const auto roll_back = [&]() {
        Vector z_dummy;
        if (checkpoint.valid()) {
            checkpoint.restore(x_, y_, z_dummy);
        } else {
            x_.assign(static_cast<std::size_t>(n_), 0.0);
            y_.assign(static_cast<std::size_t>(m_), 0.0);
        }
    };

    // One checkpoint-restore + step-size-backoff recovery attempt:
    // the PDHG analog of the ADMM sigma boost is halving both steps
    // (their product condition keeps holding with extra slack).
    const auto try_recover = [&](Index iter, const char* trigger) {
        if (recovery_attempts >= kMaxRecoveryAttempts)
            return false;
        ++recovery_attempts;
        roll_back();
        tau_ *= 0.5;
        sigma_ *= 0.5;
        reset_epoch();
        restart_merit = kInf;
        have_prev_check = false;
        watchdog.reset();
        info.recovery.record(RecoveryAction::CheckpointRestore, iter,
                             std::string(trigger) +
                                 "; rolled back to " +
                                 (checkpoint.valid()
                                      ? "iteration " +
                                            std::to_string(
                                                checkpoint.iteration())
                                      : std::string("a cold start")));
        ++info.recovery.checkpointRestores;
        info.recovery.record(RecoveryAction::SigmaBoost, iter,
                             "step backoff: tau = " +
                                 std::to_string(tau_) + ", sigma = " +
                                 std::to_string(sigma_));
        ++info.recovery.sigmaBoosts;
        RSQP_WARN("pdhg recovery at iteration ", iter, ": ", trigger,
                  "; steps halved to tau=", tau_, " sigma=", sigma_);
        return true;
    };

    for (Index iter = 1; iter <= settings_.maxIter; ++iter) {
        TELEMETRY_SPAN("pdhg.iter");
        if (settings_.timeLimit > 0.0 &&
            solve_timer.seconds() >= settings_.timeLimit) {
            info.status = SolveStatus::TimeLimitReached;
            break;
        }

        // Primal step: x+ = x - tau (P x + q + A' y).
        pCsr_.spmv(x_, px);
        atCsr_.spmv(y_, aty);
        const Real tau = tau_;
        parallelForRange(n_, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j) {
                const auto s = static_cast<std::size_t>(j);
                x_next[s] =
                    x_[s] - tau * (px[s] + scaled.q[s] + aty[s]);
                x_bar[s] = 2.0 * x_next[s] - x_[s];
            }
        });

        // Dual step via Moreau: y+ = sigma (w - Pi_[l,u](w)).
        aCsr_.spmv(x_bar, ax);
        const Real sigma = sigma_;
        const Real sigma_inv = 1.0 / sigma;
        parallelForRange(m_, [&](Index ib, Index ie) {
            for (Index i = ib; i < ie; ++i) {
                const auto s = static_cast<std::size_t>(i);
                const Real w = y_[s] * sigma_inv + ax[s];
                const Real proj =
                    clampReal(w, scaled.l[s], scaled.u[s]);
                y_[s] = sigma * (w - proj);
            }
        });
        ++epoch_len;

        if (cfg.restart == PdhgRestart::Halpern) {
            // Halpern anchoring: blend every iterate back toward the
            // epoch anchor with weight 1/(k+2) — the rAPDHG scheme
            // that restores an O(1/k) rate on the fixed-point residual.
            const Real lambda =
                1.0 / static_cast<Real>(epoch_len + 1);
            parallelForRange(n_, [&](Index jb, Index je) {
                for (Index j = jb; j < je; ++j) {
                    const auto s = static_cast<std::size_t>(j);
                    x_[s] = (1.0 - lambda) * x_next[s] +
                        lambda * x_anchor[s];
                }
            });
            parallelForRange(m_, [&](Index ib, Index ie) {
                for (Index i = ib; i < ie; ++i) {
                    const auto s = static_cast<std::size_t>(i);
                    y_[s] = (1.0 - lambda) * y_[s] +
                        lambda * y_anchor[s];
                }
            });
        } else {
            x_.swap(x_next);
        }

        // Running average of the epoch (restart target).
        parallelForRange(n_, [&](Index jb, Index je) {
            for (Index j = jb; j < je; ++j)
                x_sum[static_cast<std::size_t>(j)] +=
                    x_[static_cast<std::size_t>(j)];
        });
        parallelForRange(m_, [&](Index ib, Index ie) {
            for (Index i = ib; i < ie; ++i)
                y_sum[static_cast<std::size_t>(i)] +=
                    y_[static_cast<std::size_t>(i)];
        });

        info.iterations = iter;

        const bool check_now = (iter % settings_.checkInterval == 0) ||
            iter == settings_.maxIter;
        if (!check_now)
            continue;

        if (hasNonFinite(x_) || hasNonFinite(y_)) {
            if (try_recover(iter, "non-finite iterates"))
                continue;
            roll_back();
            info.status = SolveStatus::NumericalError;
            break;
        }

        // Unscaled residuals at the current iterate, with
        // z = Pi_[l,u](A x) as the auxiliary variable.
        qp_.unscale(x_, y_, x_u, y_u);
        original.a.spmv(x_u, ax_u);
        ewClamp(ax_u, original.l, original.u, z_u);
        const ResidualInfo res =
            computeResiduals(original, x_u, y_u, z_u, settings_.epsAbs,
                             settings_.epsRel);
        info.primRes = res.primRes;
        info.dualRes = res.dualRes;
        info.telemetry.pushResidual(iter, res.primRes, res.dualRes);

        if (settings_.recordTrace) {
            IterationRecord rec;
            rec.iteration = iter;
            rec.primRes = res.primRes;
            rec.dualRes = res.dualRes;
            rec.rho = omega_;  // the step-balance knob of this engine
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
            if (try_recover(iter, "residual stall"))
                continue;
        } else if (verdict == DivergenceWatchdog::Verdict::Ok) {
            Vector z_dummy;
            checkpoint.capture(x_, y_, z_dummy, iter);
        }

        if (res.converged()) {
            info.status = SolveStatus::Solved;
            break;
        }

        if (have_prev_check) {
            parallelForRange(n_, [&](Index jb, Index je) {
                for (Index j = jb; j < je; ++j) {
                    const auto s = static_cast<std::size_t>(j);
                    delta_x[s] = x_u[s] - x_u_prev[s];
                }
            });
            parallelForRange(m_, [&](Index ib, Index ie) {
                for (Index i = ib; i < ie; ++i) {
                    const auto s = static_cast<std::size_t>(i);
                    delta_y[s] = y_u[s] - y_u_prev[s];
                }
            });
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
        x_u_prev = x_u;
        y_u_prev = y_u;
        have_prev_check = true;

        // --- Restart logic -------------------------------------------
        const Real merit = std::max(res.primRes, res.dualRes);
        bool do_restart = false;
        bool to_average = false;
        // Warm-up rebalance: the first few checks restart in place
        // with a full-strength omega update (see PdhgConfig).
        const bool warmup_now = cfg.adaptiveStepBalance &&
            warmups_done < cfg.warmupChecks &&
            cfg.restart != PdhgRestart::None;
        if (warmup_now) {
            do_restart = true;
            ++warmups_done;
        } else {
            switch (cfg.restart) {
            case PdhgRestart::None:
                break;
            case PdhgRestart::FixedFrequency:
                if (epoch_len >= cfg.restartInterval) {
                    do_restart = true;
                    to_average = true;
                }
                break;
            case PdhgRestart::Adaptive:
                // Sufficient decay since the last restart, or the
                // forced ceiling — whichever fires first.
                if (merit <= cfg.restartBeta * restart_merit ||
                    epoch_len >= cfg.restartInterval) {
                    do_restart = true;
                    to_average = true;
                }
                break;
            case PdhgRestart::Halpern:
                // Anchor refresh only; the iterate is anchored already.
                if (epoch_len >= cfg.restartInterval)
                    do_restart = true;
                break;
            }
        }

        if (do_restart) {
            if (to_average && epoch_len > 0) {
                const Real inv =
                    1.0 / static_cast<Real>(epoch_len);
                parallelForRange(n_, [&](Index jb, Index je) {
                    for (Index j = jb; j < je; ++j) {
                        const auto s = static_cast<std::size_t>(j);
                        x_[s] = x_sum[s] * inv;
                    }
                });
                parallelForRange(m_, [&](Index ib, Index ie) {
                    for (Index i = ib; i < ie; ++i) {
                        const auto s = static_cast<std::size_t>(i);
                        y_[s] = y_sum[s] * inv;
                    }
                });
            }

            if (cfg.adaptiveStepBalance) {
                // PDLP primal-weight update: move omega toward the
                // observed dual/primal displacement ratio in log space.
                const Real dx = normInfDiff(x_, x_anchor);
                const Real dy = normInfDiff(y_, y_anchor);
                if (dx > 1e-12 && dy > 1e-12) {
                    const Real cap =
                        settings_.firstOrder.pdhg.primalWeightMax;
                    const Real s = warmup_now
                        ? 1.0
                        : settings_.firstOrder.pdhg
                              .stepBalanceSmoothing;
                    const Real target = std::log(dy / dx);
                    omega_ = clampReal(
                        std::exp(s * target +
                                 (1.0 - s) * std::log(omega_)),
                        1.0 / cap, cap);
                    applyStepSizes();
                }
            }

            reset_epoch();
            restart_merit = merit;
            ++restarts;
        }
    }

    if (hasNonFinite(x_) || hasNonFinite(y_)) {
        roll_back();
        if (info.status != SolveStatus::TimeLimitReached)
            info.status = SolveStatus::NumericalError;
    }

    // Final unscaled solution (z = Pi_[l,u](A x), the auxiliary
    // variable this engine drives A x toward).
    qp_.unscale(x_, y_, x_u, y_u);
    result.x = x_u;
    result.y = y_u;
    original.a.spmv(x_u, ax_u);
    ewClamp(ax_u, original.l, original.u, z_u);
    result.z = z_u;
    // Every NumericalError end rolled the iterates back, so its
    // residuals come from what is returned.
    if (info.status == SolveStatus::NumericalError)
        reportReturnedResiduals(original, settings_, result);
    info.objective = original.objective(result.x);

    info.solveTime = solve_timer.seconds();
    info.kktSolveTime = 0.0;  // matrix-free: there is no KKT backend

    SolveTelemetry& tele = info.telemetry;
    tele.backend = backendKindName(BackendKind::Pdhg);
    tele.restarts = restarts;
    tele.iterations = info.iterations;
    tele.kktSolves = 0;
    tele.pcgIterationsTotal = 0;
    tele.pcgItersPerSolve = 0.0;
    tele.isaLevel = isaLevelName(simd::activeIsaLevel());
    tele.recoveryEvents =
        static_cast<Count>(info.recovery.events.size());
    tele.solveSeconds = info.solveTime;
    {
        using telemetry::MetricsRegistry;
        MetricsRegistry& registry = MetricsRegistry::global();
        static telemetry::Counter& solves = registry.counter(
            "rsqp_backend_solves_total{backend=\"pdhg\"}",
            "Completed solves per first-order backend");
        static telemetry::Counter& iterations = registry.counter(
            "rsqp_backend_iterations_total{backend=\"pdhg\"}",
            "First-order iterations per backend");
        static telemetry::Counter& restarts_total = registry.counter(
            "rsqp_backend_restarts_total{backend=\"pdhg\"}",
            "Restarts per first-order backend");
        solves.increment();
        iterations.add(static_cast<std::uint64_t>(info.iterations));
        restarts_total.add(static_cast<std::uint64_t>(restarts));
    }

    lastInfo_ = info;
    return result;
}

} // namespace rsqp
