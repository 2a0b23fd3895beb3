/**
 * @file
 * Configuration of the pluggable first-order backend subsystem.
 *
 * This header is deliberately leaf-level (it depends only on
 * common/types.hpp) so osqp/settings.hpp can embed the knobs without
 * the osqp library depending on the backends library: the settings
 * travel with OsqpSettings, the engines live in src/backends.
 *
 * Two first-order methods share the SolveStatus/OsqpInfo/
 * SolveTelemetry contract:
 *
 *  - Admm  — the OSQP ADMM loop, OsqpSolver itself (default);
 *  - Pdhg  — a restarted primal-dual hybrid gradient engine in the
 *            PDLP/PDQP style (arXiv 2311.07710): matrix-free,
 *            adaptive primal-dual step-size balancing,
 *            average/Halpern restarts;
 *  - Auto  — one of the two, picked once at setup by chooseBackend
 *            from structure features.
 */

#ifndef RSQP_BACKENDS_BACKEND_CONFIG_HPP
#define RSQP_BACKENDS_BACKEND_CONFIG_HPP

#include "common/types.hpp"

namespace rsqp
{

/** Which first-order engine answers a solve. */
enum class BackendKind
{
    Admm,  ///< OSQP ADMM loop (default)
    Pdhg,  ///< restarted PDHG/PDQP engine
    Auto,  ///< per-problem chooseBackend pick at setup
};

/** Printable backend name ("admm", "pdhg", "auto"). */
// Inline so rsqp_osqp can stringify its telemetry label without
// linking the backends library (settings.hpp pulls this header in).
inline const char*
backendKindName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::Admm: return "admm";
    case BackendKind::Pdhg: return "pdhg";
    case BackendKind::Auto: return "auto";
    }
    return "unknown";
}

/** Restart strategy of the PDHG engine. */
enum class PdhgRestart
{
    None,            ///< raw PDHG (sublinear tail; mostly for ablation)
    FixedFrequency,  ///< restart to the running average every interval
    Adaptive,        ///< restart on sufficient merit decay or stall
    Halpern,         ///< anchor every step to the last restart point
};

/** Printable restart-mode name. */
inline const char*
pdhgRestartName(PdhgRestart restart)
{
    switch (restart) {
    case PdhgRestart::None: return "none";
    case PdhgRestart::FixedFrequency: return "fixed-frequency";
    case PdhgRestart::Adaptive: return "adaptive";
    case PdhgRestart::Halpern: return "halpern";
    }
    return "unknown";
}

/** Knobs of the restarted PDHG/PDQP engine. */
struct PdhgConfig
{
    /** Restart strategy (Adaptive matches the PDLP/PDQP default). */
    PdhgRestart restart = PdhgRestart::Adaptive;

    /**
     * FixedFrequency: iterations between average restarts. Also the
     * Adaptive mode's forced-restart ceiling — a restart fires at the
     * latest after this many iterations in one epoch.
     */
    Index restartInterval = 120;

    /**
     * Adaptive: restart as soon as the scaled merit (max of primal
     * and dual residual) fell to this fraction of its value at the
     * last restart. PDLP's "sufficient decay" trigger.
     */
    Real restartBeta = 0.2;

    /**
     * Initial primal weight omega (tau = omega / eta, sigma =
     * 1 / (omega * eta) with eta the estimated ||A||). 0 picks the
     * data-driven default ||q|| / max(||l||,||u||,1) clamp.
     */
    Real primalWeight = 0.0;

    /**
     * Adapt omega at restart points from the observed primal/dual
     * displacement ratio (log-space smoothing, PDLP Section 4.2).
     */
    bool adaptiveStepBalance = true;

    /** Smoothing exponent of the primal-weight update in [0, 1]. */
    Real stepBalanceSmoothing = 0.5;

    /**
     * Warm-up rebalances: the first N residual checks of a solve each
     * force a restart whose primal-weight update uses full strength
     * (no smoothing), so omega locks onto the observed dual/primal
     * displacement ratio within checkInterval iterations instead of
     * drifting toward it over several restart epochs. 0 disables.
     */
    Index warmupChecks = 1;

    /** Clamp for the adapted primal weight (and its reciprocal). */
    Real primalWeightMax = 1e4;

    /** Power-iteration sweeps for the ||A|| / lambda_max(P) bounds. */
    Index powerIterations = 20;

    /** Safety margin multiplied onto the power-iteration estimates. */
    Real stepSafety = 1.05;
};

/** First-order method selection riding on OsqpSettings. */
struct FirstOrderSettings
{
    /** Which engine (or Auto selection) answers solve(). */
    BackendKind method = BackendKind::Admm;

    /** Restarted PDHG engine knobs. */
    PdhgConfig pdhg;
};

} // namespace rsqp

#endif // RSQP_BACKENDS_BACKEND_CONFIG_HPP
