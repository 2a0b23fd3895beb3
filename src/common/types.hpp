/**
 * @file
 * Fundamental scalar and index types shared by every RSQP module.
 *
 * The solver numerics use double precision ("Real"); the simulated
 * accelerator datapath additionally supports single precision to mirror
 * the FP32 MAC trees of the paper's FPGA implementation.
 */

#ifndef RSQP_COMMON_TYPES_HPP
#define RSQP_COMMON_TYPES_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace rsqp
{

/** Index type used for matrix dimensions and sparse coordinates. */
using Index = std::int32_t;

/** Wide index type used for non-zero counts and cycle counters. */
using Count = std::int64_t;

/** Scalar type of the reference solver numerics. */
using Real = double;

/** Scalar type of the simulated accelerator datapath (FP32 MAC trees). */
using ArchReal = float;

/** Dense vector of solver scalars. */
using Vector = std::vector<Real>;

/** Dense vector of indices. */
using IndexVector = std::vector<Index>;

/** A value representing "positive infinity" for constraint bounds. */
inline constexpr Real kInf = 1e30;

/** Machine epsilon wrapper for Real. */
inline constexpr Real kEps = std::numeric_limits<Real>::epsilon();

/** Clamp helper mirroring the OSQP projection operator semantics. */
inline Real
clampReal(Real v, Real lo, Real hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

} // namespace rsqp

#endif // RSQP_COMMON_TYPES_HPP
