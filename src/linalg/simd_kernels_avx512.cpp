/**
 * @file
 * AVX-512 instantiation of the kernel body: one 512-bit register per
 * 8-lane fp64 pack. The reduction first adds the upper 256-bit half to
 * the lower (lanes i and i+4), then reuses the exact AVX2/scalar
 * halving tree — so the three tables stay bitwise-identical.
 * Compiled with -mavx512f/dq/vl/bw -ffp-contract=off; built only when
 * the toolchain supports those flags (RSQP_SIMD_BUILD_AVX512).
 */

#include "simd_kernels_tables.hpp"

#if defined(RSQP_SIMD_BUILD_AVX512)

#include <cmath>
#include <immintrin.h>
#include <limits>

// GCC's AVX-512 headers expand _mm512_extractf64x4_pd and friends
// through _mm512_undefined_pd(), which trips
// -Wuninitialized at every inlined use (GCC PR 105593). The values are
// immediately overwritten by the builtins; suppress the false positive
// for this TU only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace rsqp::simd
{

namespace
{

struct PackD
{
    __m512d v;

    static PackD
    zero()
    {
        return {_mm512_setzero_pd()};
    }

    static PackD
    load(const Real* p)
    {
        return {_mm512_loadu_pd(p)};
    }

    static void
    store(Real* p, PackD a)
    {
        _mm512_storeu_pd(p, a.v);
    }

    static PackD
    broadcast(Real x)
    {
        return {_mm512_set1_pd(x)};
    }

    static PackD
    add(PackD a, PackD b)
    {
        return {_mm512_add_pd(a.v, b.v)};
    }

    static PackD
    sub(PackD a, PackD b)
    {
        return {_mm512_sub_pd(a.v, b.v)};
    }

    static PackD
    mul(PackD a, PackD b)
    {
        return {_mm512_mul_pd(a.v, b.v)};
    }

    static PackD
    abs(PackD a)
    {
        return {_mm512_abs_pd(a.v)};
    }

    /** Lane = val > acc ? val : acc (NaN val keeps acc, like vmaxpd). */
    static PackD
    maxAcc(PackD acc, PackD val)
    {
        return {_mm512_max_pd(val.v, acc.v)};
    }

    static bool
    anyNonFinite(PackD a)
    {
        const __m512d inf =
            _mm512_set1_pd(std::numeric_limits<Real>::infinity());
        return _mm512_cmp_pd_mask(_mm512_abs_pd(a.v), inf,
                                  _CMP_NLT_UQ) != 0;
    }

    static PackD
    gather(const Real* base, const Index* idx)
    {
        const __m256i vi =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
        // Masked gather with a zero source: the plain intrinsic
        // expands through _mm512_undefined_pd, which GCC warns about.
        return {_mm512_mask_i32gather_pd(_mm512_setzero_pd(),
                                         static_cast<__mmask8>(0xff),
                                         vi, base, 8)};
    }

    static void
    scatter(Real* base, const Index* idx, PackD a)
    {
        const __m256i vi =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
        _mm512_i32scatter_pd(base, vi, a.v, 8);
    }

    /** Canonical halving tree: (i, i+4), then (i, i+2), then the pair. */
    static Real
    reduceAdd(PackD a)
    {
        const __m256d m = _mm256_add_pd(_mm512_castpd512_pd256(a.v),
                                        _mm512_extractf64x4_pd(a.v, 1));
        const __m128d q = _mm_add_pd(_mm256_castpd256_pd128(m),
                                     _mm256_extractf128_pd(m, 1));
        return _mm_cvtsd_f64(_mm_add_sd(q, _mm_unpackhi_pd(q, q)));
    }

    static Real
    reduceMax(PackD a)
    {
        const __m256d m = _mm256_max_pd(_mm512_extractf64x4_pd(a.v, 1),
                                        _mm512_castpd512_pd256(a.v));
        const __m128d q = _mm_max_pd(_mm256_extractf128_pd(m, 1),
                                     _mm256_castpd256_pd128(m));
        return _mm_cvtsd_f64(_mm_max_sd(_mm_unpackhi_pd(q, q), q));
    }
};

#include "simd_kernels_body.ipp"

} // namespace

const VectorKernels*
avx512KernelTable()
{
    static const VectorKernels table =
        makeKernelTable(IsaLevel::Avx512, "avx512");
    return &table;
}

} // namespace rsqp::simd

#else // !RSQP_SIMD_BUILD_AVX512

namespace rsqp::simd
{

const VectorKernels*
avx512KernelTable()
{
    return nullptr;
}

} // namespace rsqp::simd

#endif
