#include "pcg.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "linalg/vector_ops.hpp"
#include "telemetry/trace.hpp"

namespace rsqp
{

const char*
toString(PcgBreakdown breakdown)
{
    switch (breakdown) {
    case PcgBreakdown::None:
        return "none";
    case PcgBreakdown::IndefiniteDirection:
        return "indefinite-direction";
    case PcgBreakdown::NonFiniteResidual:
        return "non-finite-residual";
    case PcgBreakdown::Stagnation:
        return "stagnation";
    }
    return "unknown";
}

Real
pcgResidualTolerance(Real prim_res, Real dual_res)
{
    return kPcgResidualFraction *
        std::min(std::sqrt(prim_res * dual_res), dual_res);
}

JacobiPreconditioner::JacobiPreconditioner(const Vector& diagonal)
{
    rebuild(diagonal);
}

void
JacobiPreconditioner::rebuild(const Vector& diagonal)
{
    invDiag_.resize(diagonal.size());
    for (std::size_t i = 0; i < diagonal.size(); ++i) {
        RSQP_ASSERT(diagonal[i] > 0.0,
                    "Jacobi preconditioner needs a positive diagonal, got ",
                    diagonal[i], " at ", i);
        invDiag_[i] = 1.0 / diagonal[i];
    }
}

void
JacobiPreconditioner::apply(const Vector& r, Vector& out) const
{
    RSQP_ASSERT(r.size() == invDiag_.size(), "preconditioner size");
    RSQP_ASSERT(out.size() == r.size(),
                "preconditioner out vector not preallocated");
    for (std::size_t i = 0; i < r.size(); ++i)
        out[i] = r[i] * invDiag_[i];
}

namespace
{

/**
 * fn() inside the phase span `name` (a string literal). The CG loop's
 * vector work is traced here, at its call sites, not inside the
 * vector_ops kernels: the ADMM loop and the simulated machine call
 * those kernels too and must not record PCG phases.
 */
template <typename F>
auto
inPhase([[maybe_unused]] const char* name, F&& fn)
{
    TELEMETRY_SPAN(name);
    return fn();
}

/**
 * The shared CG loop, templated on the operator so the hot
 * ReducedKktOperator path never goes through a std::function.
 *
 * Textbook form (r = b - K x, p = d + mu p): every iteration is the
 * operator apply plus three fused passes — dot(p, Kp), the combined
 * x/r update with its residual norm (xMinusAlphaPDot), and the
 * preconditioner apply with its dot (precondApplyDot) — instead of the
 * 5-6 separate sweeps of the naive loop. All reductions use the
 * fixed-grain deterministic chunking, so iterates and results are
 * bitwise-identical at any thread count.
 */
template <typename ApplyK>
PcgResult
pcgSolveImpl(ApplyK&& apply_k, const JacobiPreconditioner& precond,
             const Vector& b, Vector& x, const PcgSettings& settings,
             PcgWorkspace& ws)
{
    const std::size_t n = b.size();
    RSQP_ASSERT(x.size() == n, "pcg: x size mismatch");
    ws.resize(n);
    Vector& r = ws.r;
    Vector& d = ws.d;
    Vector& p = ws.p;
    Vector& kp = ws.kp;

    PcgResult result;
    const Real b_norm = inPhase("pcg.reduction", [&] { return norm2(b); });
    const Real threshold =
        std::max(settings.epsAbs, settings.epsRel * b_norm);

    // r0 = b - K x0.
    apply_k(x, r);
    axpby(1.0, b, -1.0, r, r);

    Real r_norm = inPhase("pcg.reduction", [&] { return norm2(r); });
    if (!std::isfinite(r_norm)) {
        result.breakdown = PcgBreakdown::NonFiniteResidual;
        result.residualNorm = r_norm;
        return result;
    }
    if (r_norm < threshold) {
        result.converged = true;
        result.residualNorm = r_norm;
        return result;
    }

    const Vector& inv_diag = precond.inverseDiagonal();
    RSQP_ASSERT(inv_diag.size() == n, "preconditioner size");

    // d0 = M^-1 r0 and rd = r'd in one pass; p0 = d0.
    Real rd = inPhase("pcg.precond",
                      [&] { return precondApplyDot(inv_diag, r, d); });
    std::copy(d.begin(), d.end(), p.begin());

    Real best_r_norm = r_norm;
    Index iters_without_progress = 0;
    for (Index iter = 0; iter < settings.maxIter; ++iter) {
        apply_k(p, kp);
        const Real pkp =
            inPhase("pcg.reduction", [&] { return dot(p, kp); });
        if (!std::isfinite(pkp) || pkp <= 0.0) {
            // Indefinite direction: K stopped acting positive definite
            // on this Krylov subspace.
            RSQP_WARN("pcg: non-positive curvature ", pkp, "; aborting");
            result.breakdown = PcgBreakdown::IndefiniteDirection;
            break;
        }
        const Real lambda = rd / pkp;
        // x += lambda p, r -= lambda kp and ||r||^2 in a single pass.
        const Real rr = inPhase("pcg.fused_vector_ops", [&] {
            return xMinusAlphaPDot(lambda, p, x, kp, r);
        });

        ++result.iterations;
        r_norm = std::sqrt(rr);
        if (!std::isfinite(r_norm)) {
            result.breakdown = PcgBreakdown::NonFiniteResidual;
            break;
        }
        if (r_norm < threshold) {
            result.converged = true;
            break;
        }
        if (r_norm < 0.999 * best_r_norm) {
            best_r_norm = r_norm;
            iters_without_progress = 0;
        } else if (settings.stagnationWindow > 0 &&
                   ++iters_without_progress >= settings.stagnationWindow) {
            RSQP_WARN("pcg: residual stagnant at ", r_norm, " for ",
                      iters_without_progress, " iterations; aborting");
            result.breakdown = PcgBreakdown::Stagnation;
            break;
        }

        // d = M^-1 r and rd' = r'd fused; then p = d + mu p.
        const Real rd_next = inPhase(
            "pcg.precond", [&] { return precondApplyDot(inv_diag, r, d); });
        const Real mu = rd_next / rd;
        rd = rd_next;
        inPhase("pcg.fused_vector_ops", [&] { axpby(1.0, d, mu, p, p); });
    }
    result.residualNorm = r_norm;
    return result;
}

} // namespace

PcgResult
pcgSolve(const std::function<void(const Vector&, Vector&)>& apply_k,
         const JacobiPreconditioner& precond, const Vector& b, Vector& x,
         const PcgSettings& settings, PcgWorkspace& workspace)
{
    return pcgSolveImpl(apply_k, precond, b, x, settings, workspace);
}

PcgResult
pcgSolve(const std::function<void(const Vector&, Vector&)>& apply_k,
         const JacobiPreconditioner& precond, const Vector& b, Vector& x,
         const PcgSettings& settings)
{
    PcgWorkspace workspace;
    return pcgSolveImpl(apply_k, precond, b, x, settings, workspace);
}

PcgResult
pcgSolve(const ReducedKktOperator& op, const JacobiPreconditioner& precond,
         const Vector& b, Vector& x, const PcgSettings& settings,
         PcgWorkspace& workspace)
{
    return pcgSolveImpl(
        [&op](const Vector& in, Vector& out) { op.apply(in, out); },
        precond, b, x, settings, workspace);
}

PcgResult
pcgSolve(const ReducedKktOperator& op, const JacobiPreconditioner& precond,
         const Vector& b, Vector& x, const PcgSettings& settings)
{
    PcgWorkspace workspace;
    return pcgSolveImpl(
        [&op](const Vector& in, Vector& out) { op.apply(in, out); },
        precond, b, x, settings, workspace);
}

} // namespace rsqp
