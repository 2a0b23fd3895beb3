/**
 * @file
 * Dense vector kernels shared by the reference solver and the simulated
 * vector engine. These are exactly the "Vector Operations" of the RSQP
 * instruction set (Table 1): linear combination, element-wise
 * compare/reciprocal/multiplication and dot product.
 *
 * Vectors at or above kParallelThreshold elements fan out across the
 * shared ThreadPool (see common/thread_pool.hpp). Reductions (dot,
 * norm2, normInf*) switch to a fixed-grain chunked evaluation at that
 * size regardless of the thread count, so their bitwise result depends
 * only on the data — never on how many threads ran them.
 *
 * The per-chunk arithmetic dispatches through the SIMD kernel table
 * (linalg/simd_kernels.hpp): every reduction and fused kernel uses the
 * canonical 8-lane-striped order with a fixed combine tree, identical
 * across the scalar/AVX2/AVX-512 implementations, so results are also
 * bitwise-identical at every dispatched ISA level. Elementwise kernels
 * (axpby, scale, ew*) need no dispatch — their per-element results are
 * width-independent by construction.
 */

#ifndef RSQP_LINALG_VECTOR_OPS_HPP
#define RSQP_LINALG_VECTOR_OPS_HPP

#include "common/types.hpp"

namespace rsqp
{

/** out = alpha * x + beta * y (out may alias x or y). */
void axpby(Real alpha, const Vector& x, Real beta, const Vector& y,
           Vector& out);

/** y += alpha * x. */
void axpy(Real alpha, const Vector& x, Vector& y);

/** x *= alpha. */
void scale(Vector& x, Real alpha);

/** Dot product x' y. */
Real dot(const Vector& x, const Vector& y);

/**
 * Fused CG kernel: y += alpha * x, then returns dot(y, z) — one memory
 * pass instead of two. z may alias y (then the dot reads the updated
 * y, exactly like composing axpy + dot). The reduction uses the same
 * fixed-grain chunking as dot(), so the result is bitwise-identical to
 * the composed ops at any thread count.
 */
Real axpyDot(Real alpha, const Vector& x, Vector& y, const Vector& z);

/**
 * Fused CG iterate update: x += alpha * p and r -= alpha * kp in one
 * pass, returning dot(r, r) of the updated residual. Collapses the
 * three separate sweeps (two axpy + one norm) of a textbook CG
 * iteration into a single read of p/kp and write of x/r. Bitwise
 * equal to the composed ops at any thread count.
 */
Real xMinusAlphaPDot(Real alpha, const Vector& p, Vector& x,
                     const Vector& kp, Vector& r);

/**
 * Fused Jacobi preconditioner apply: d[i] = inv_diag[i] * r[i],
 * returning dot(r, d). One pass instead of the apply + dot pair.
 * Bitwise equal to the composed ops at any thread count.
 */
Real precondApplyDot(const Vector& inv_diag, const Vector& r, Vector& d);

/** Euclidean norm. */
Real norm2(const Vector& x);

/** Infinity norm. */
Real normInf(const Vector& x);

/** Infinity norm of (x - y). */
Real normInfDiff(const Vector& x, const Vector& y);

/** out[i] = x[i] * y[i]. */
void ewProduct(const Vector& x, const Vector& y, Vector& out);

/** out[i] = 1 / x[i]; panics on exact zero. */
void ewReciprocal(const Vector& x, Vector& out);

/** out[i] = min(x[i], y[i]). */
void ewMin(const Vector& x, const Vector& y, Vector& out);

/** out[i] = max(x[i], y[i]). */
void ewMax(const Vector& x, const Vector& y, Vector& out);

/** out[i] = clamp(x[i], lo[i], hi[i]) — the OSQP projection Pi. */
void ewClamp(const Vector& x, const Vector& lo, const Vector& hi,
             Vector& out);

/** out[i] = sqrt(x[i]); x must be non-negative. */
void ewSqrt(const Vector& x, Vector& out);

/** All elements finite? */
bool allFinite(const Vector& x);

/**
 * Any NaN/Inf element? Chunked like the other reductions, so the
 * answer (and the scan order behind it) is identical at every thread
 * count. The watchdog's preferred screen: !allFinite with the same
 * deterministic-parallel guarantees as the norms.
 */
bool hasNonFinite(const Vector& x);

/**
 * Infinity norm that propagates NaN deterministically: returns quiet
 * NaN if any element is non-finite at every thread count (plain
 * normInf's max-reduction silently drops NaN because
 * max(NaN, x) == x). Use wherever a poisoned vector must poison the
 * residual instead of vanishing.
 */
Real normInfChecked(const Vector& x);

/** Constant vector helper. */
Vector constantVector(Index n, Real value);

} // namespace rsqp

#endif // RSQP_LINALG_VECTOR_OPS_HPP
