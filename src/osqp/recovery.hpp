/**
 * @file
 * Numerical-failure recovery machinery of the ADMM and PDHG loops: the
 * divergence watchdog, the last-good iterate checkpoint, and the
 * RecoveryReport that records every recovery action a solve took
 * (PCG→LDL′ fallback, checkpoint restore, sigma boost or PDHG step
 * backoff).
 *
 * Each mechanism fires on real input, with no fault model behind it:
 * an indefinite P that passes validation (nonnegative diagonal) breaks
 * PCG down and blows the ADMM and PDHG residuals up, and
 * primal-infeasible problems stall them. The design goal is
 * *bounded, typed* behavior under that stress: a solve either
 * converges (possibly after recovery, all attempts on record) or
 * terminates with a typed failure status and finite iterates — never
 * a NaN result, never a hang.
 */

#ifndef RSQP_OSQP_RECOVERY_HPP
#define RSQP_OSQP_RECOVERY_HPP

#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rsqp
{

/** One kind of recovery action the solver can take. */
enum class RecoveryAction
{
    PcgDirectFallback,  ///< PCG broke down; the LDL' path solved the step
    CheckpointRestore,  ///< diverged; rolled back to the last-good iterate
    SigmaBoost,         ///< retried with boosted sigma regularization
};

/** Printable name of a recovery action. */
const char* toString(RecoveryAction action);

/** One recorded recovery attempt. */
struct RecoveryEvent
{
    RecoveryAction action = RecoveryAction::PcgDirectFallback;
    Index iteration = 0;  ///< ADMM iteration (0 = outside the loop)
    std::string detail;   ///< trigger description, new parameter value...
};

/** Every recovery action of one solve, in order. */
struct RecoveryReport
{
    std::vector<RecoveryEvent> events;
    Index pcgFallbacks = 0;       ///< KKT steps solved by the LDL' path
    Index checkpointRestores = 0; ///< divergence rollbacks
    Index sigmaBoosts = 0;        ///< regularization escalations

    bool empty() const { return events.empty(); }

    /** Append one event (counters are bumped by the caller's field). */
    void record(RecoveryAction action, Index iteration,
                std::string detail = "");

    /** One-line human-readable digest ("2 pcg fallbacks, 1 restore"). */
    std::string summary() const;
};

/**
 * Declare divergence when the combined residual exceeds the best
 * combined residual seen so far by this factor (or goes non-finite).
 * Conservative by design: transient residual bumps from rho updates
 * are orders of magnitude smaller.
 */
inline constexpr Real kDivergenceFactor = 1e6;

/**
 * Declare a stall after this many consecutive termination checks
 * without any improvement of the best combined residual. A stall
 * triggers the same checkpoint recovery, then the solve is left to run
 * to its iteration budget.
 */
inline constexpr Index kStallChecks = 40;

/** Checkpoint-restore attempts per solve before giving up. */
inline constexpr Index kMaxRecoveryAttempts = 1;

/** Multiplier applied to the ADMM sigma on a checkpoint restore. */
inline constexpr Real kSigmaBoost = 1e3;

/** Last-good iterate snapshot used by the divergence recovery path. */
class IterateCheckpoint
{
  public:
    /** Snapshot the (scaled) iterates at a healthy termination check. */
    void capture(const Vector& x, const Vector& y, const Vector& z,
                 Index iteration);

    bool valid() const { return valid_; }
    Index iteration() const { return iteration_; }

    /** Overwrite the iterates with the snapshot (requires valid()). */
    void restore(Vector& x, Vector& y, Vector& z) const;

  private:
    Vector x_, y_, z_;
    Index iteration_ = 0;
    bool valid_ = false;
};

/**
 * Divergence/stall detector fed at every termination check with the
 * unscaled residual pair.
 */
class DivergenceWatchdog
{
  public:
    enum class Verdict
    {
        Baseline,  ///< first score since construction or reset():
                   ///< nothing to judge it by, so no checkpoint
        Ok,        ///< residuals healthy (new checkpoint candidate)
        Stalled,   ///< no progress for kStallChecks checks
        Diverged,  ///< non-finite or blown up vs. the best seen
    };

    /** Feed one residual observation; returns the verdict. */
    Verdict observe(Real prim_res, Real dual_res);

    /** Forget history (after a checkpoint restore). */
    void reset();

    Real bestScore() const { return bestScore_; }

  private:
    Real bestScore_ = std::numeric_limits<Real>::infinity();
    Index checksSinceImprovement_ = 0;
};

/** Printable verdict name for diagnostics. */
const char* toString(DivergenceWatchdog::Verdict verdict);

} // namespace rsqp

#endif // RSQP_OSQP_RECOVERY_HPP
