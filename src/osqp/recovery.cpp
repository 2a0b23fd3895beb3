#include "recovery.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hpp"

namespace rsqp
{

const char*
toString(RecoveryAction action)
{
    switch (action) {
    case RecoveryAction::PcgDirectFallback:
        return "pcg-direct-fallback";
    case RecoveryAction::CheckpointRestore:
        return "checkpoint-restore";
    case RecoveryAction::SigmaBoost:
        return "sigma-boost";
    }
    return "unknown";
}

void
RecoveryReport::record(RecoveryAction action, Index iteration,
                       std::string detail)
{
    RecoveryEvent event;
    event.action = action;
    event.iteration = iteration;
    event.detail = std::move(detail);
    events.push_back(std::move(event));
}

std::string
RecoveryReport::summary() const
{
    if (empty())
        return "no recovery actions";
    std::string out;
    const auto append = [&out](Index count, const char* label) {
        if (count <= 0)
            return;
        if (!out.empty())
            out += ", ";
        out += std::to_string(count);
        out += ' ';
        out += label;
        if (count != 1)
            out += 's';
    };
    append(pcgFallbacks, "pcg fallback");
    append(checkpointRestores, "checkpoint restore");
    append(sigmaBoosts, "sigma boost");
    if (out.empty())
        out = std::to_string(events.size()) + " recovery events";
    return out;
}

void
IterateCheckpoint::capture(const Vector& x, const Vector& y,
                           const Vector& z, Index iteration)
{
    x_ = x;
    y_ = y;
    z_ = z;
    iteration_ = iteration;
    valid_ = true;
}

void
IterateCheckpoint::restore(Vector& x, Vector& y, Vector& z) const
{
    RSQP_ASSERT(valid_, "restore from an empty checkpoint");
    x = x_;
    y = y_;
    z = z_;
}

DivergenceWatchdog::Verdict
DivergenceWatchdog::observe(Real prim_res, Real dual_res)
{
    const Real score = prim_res + dual_res;
    if (!std::isfinite(score))
        return Verdict::Diverged;

    // The best score starts at +infinity, not at the bound sentinel
    // kInf (1e30) that a blown-up run passes, so the first finite score
    // always lands here. It only sets the baseline: a run can be blown
    // up by its first check, so that iterate is never a checkpoint.
    if (score < bestScore_) {
        const bool first = std::isinf(bestScore_);
        bestScore_ = score;
        checksSinceImprovement_ = 0;
        return first ? Verdict::Baseline : Verdict::Ok;
    }

    // The epsilon floor keeps a tiny best score (already at solver
    // tolerance) from flagging every later observation as divergence.
    if (score > kDivergenceFactor * std::max(bestScore_, Real(1e-12)))
        return Verdict::Diverged;

    ++checksSinceImprovement_;
    if (checksSinceImprovement_ >= kStallChecks) {
        checksSinceImprovement_ = 0;
        return Verdict::Stalled;
    }
    return Verdict::Ok;
}

void
DivergenceWatchdog::reset()
{
    bestScore_ = std::numeric_limits<Real>::infinity();
    checksSinceImprovement_ = 0;
}

const char*
toString(DivergenceWatchdog::Verdict verdict)
{
    switch (verdict) {
    case DivergenceWatchdog::Verdict::Baseline:
        return "baseline";
    case DivergenceWatchdog::Verdict::Ok:
        return "ok";
    case DivergenceWatchdog::Verdict::Stalled:
        return "stalled";
    case DivergenceWatchdog::Verdict::Diverged:
        return "diverged";
    }
    return "unknown";
}

} // namespace rsqp
