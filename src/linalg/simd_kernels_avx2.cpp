/**
 * @file
 * AVX2 instantiation of the kernel body. An 8-lane fp64 pack is two
 * 256-bit registers; the halving-tree reduction adds the high half to
 * the low half exactly like the scalar reference, and the TU compiles
 * with -mavx2 -ffp-contract=off (mul + add stay separate, so lanes
 * match the scalar reference bit for bit). Built only when the
 * toolchain accepts -mavx2 on x86 (RSQP_SIMD_BUILD_AVX2); otherwise
 * this TU contributes a null table and the dispatcher clamps.
 */

#include "simd_kernels_tables.hpp"

#if defined(RSQP_SIMD_BUILD_AVX2)

#include <cmath>
#include <immintrin.h>
#include <limits>

namespace rsqp::simd
{

namespace
{

struct PackD
{
    __m256d lo; ///< lanes 0..3
    __m256d hi; ///< lanes 4..7

    static PackD
    zero()
    {
        return {_mm256_setzero_pd(), _mm256_setzero_pd()};
    }

    static PackD
    load(const Real* p)
    {
        return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
    }

    static void
    store(Real* p, PackD v)
    {
        _mm256_storeu_pd(p, v.lo);
        _mm256_storeu_pd(p + 4, v.hi);
    }

    static PackD
    broadcast(Real x)
    {
        const __m256d v = _mm256_set1_pd(x);
        return {v, v};
    }

    static PackD
    add(PackD a, PackD b)
    {
        return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
    }

    static PackD
    sub(PackD a, PackD b)
    {
        return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
    }

    static PackD
    mul(PackD a, PackD b)
    {
        return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
    }

    static PackD
    abs(PackD a)
    {
        const __m256d mask = _mm256_set1_pd(-0.0);
        return {_mm256_andnot_pd(mask, a.lo), _mm256_andnot_pd(mask, a.hi)};
    }

    /**
     * Lane = val > acc ? val : acc. vmaxpd returns its second operand
     * when the first is NaN, so passing val first drops NaN elements —
     * the std::max(best, |x|) semantics of the scalar reference.
     */
    static PackD
    maxAcc(PackD acc, PackD val)
    {
        return {_mm256_max_pd(val.lo, acc.lo),
                _mm256_max_pd(val.hi, acc.hi)};
    }

    static bool
    anyNonFinite(PackD a)
    {
        const __m256d inf =
            _mm256_set1_pd(std::numeric_limits<Real>::infinity());
        const PackD mag = abs(a);
        // NLT_UQ: |x| not-less-than inf, or unordered (NaN).
        const __m256d c0 = _mm256_cmp_pd(mag.lo, inf, _CMP_NLT_UQ);
        const __m256d c1 = _mm256_cmp_pd(mag.hi, inf, _CMP_NLT_UQ);
        return _mm256_movemask_pd(_mm256_or_pd(c0, c1)) != 0;
    }

    static PackD
    gather(const Real* base, const Index* idx)
    {
        const __m128i i0 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
        const __m128i i1 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + 4));
        // Masked form with an explicit zero source: the plain gather
        // intrinsic expands through _mm256_undefined_pd, which GCC
        // flags as maybe-uninitialized under -Wall.
        const __m256d src = _mm256_setzero_pd();
        const __m256d mask = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        return {_mm256_mask_i32gather_pd(src, base, i0, mask, 8),
                _mm256_mask_i32gather_pd(src, base, i1, mask, 8)};
    }

    /** AVX2 has no scatter instruction: one 64-bit store per lane. */
    static void
    scatter(Real* base, const Index* idx, PackD v)
    {
        const __m128d q0 = _mm256_castpd256_pd128(v.lo);
        const __m128d q1 = _mm256_extractf128_pd(v.lo, 1);
        const __m128d q2 = _mm256_castpd256_pd128(v.hi);
        const __m128d q3 = _mm256_extractf128_pd(v.hi, 1);
        _mm_storel_pd(base + idx[0], q0);
        _mm_storeh_pd(base + idx[1], q0);
        _mm_storel_pd(base + idx[2], q1);
        _mm_storeh_pd(base + idx[3], q1);
        _mm_storel_pd(base + idx[4], q2);
        _mm_storeh_pd(base + idx[5], q2);
        _mm_storel_pd(base + idx[6], q3);
        _mm_storeh_pd(base + idx[7], q3);
    }

    /** Canonical halving tree: (i, i+4), then (i, i+2), then the pair. */
    static Real
    reduceAdd(PackD a)
    {
        const __m256d m = _mm256_add_pd(a.lo, a.hi);
        const __m128d q = _mm_add_pd(_mm256_castpd256_pd128(m),
                                     _mm256_extractf128_pd(m, 1));
        return _mm_cvtsd_f64(_mm_add_sd(q, _mm_unpackhi_pd(q, q)));
    }

    static Real
    reduceMax(PackD a)
    {
        const __m256d m = _mm256_max_pd(a.hi, a.lo);
        const __m128d q = _mm_max_pd(_mm256_extractf128_pd(m, 1),
                                     _mm256_castpd256_pd128(m));
        return _mm_cvtsd_f64(_mm_max_sd(_mm_unpackhi_pd(q, q), q));
    }
};

#include "simd_kernels_body.ipp"

} // namespace

const VectorKernels*
avx2KernelTable()
{
    static const VectorKernels table =
        makeKernelTable(IsaLevel::Avx2, "avx2");
    return &table;
}

} // namespace rsqp::simd

#else // !RSQP_SIMD_BUILD_AVX2

namespace rsqp::simd
{

const VectorKernels*
avx2KernelTable()
{
    return nullptr;
}

} // namespace rsqp::simd

#endif
