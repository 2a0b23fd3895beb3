/**
 * @file
 * Steady-state allocation tests for the indirect hot path. This binary
 * replaces the global operator new/delete pair with counting versions:
 * after a warm-up solve has sized every workspace, repeated PCG solves
 * and IndirectKktSolver steps must perform ZERO heap allocations —
 * the software contract mirroring the accelerator's statically
 * provisioned on-chip buffers.
 *
 * Kept in its own test binary because the global replacement affects
 * every allocation in the process.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "linalg/kkt.hpp"
#include "linalg/vector_ops.hpp"
#include "solvers/kkt_solver.hpp"
#include "solvers/pcg.hpp"
#include "tests/test_util.hpp"

namespace
{

std::atomic<std::uint64_t> gAllocations{0};

std::uint64_t
allocationCount()
{
    return gAllocations.load(std::memory_order_relaxed);
}

void*
countedAlloc(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void* ptr = std::malloc(size == 0 ? 1 : size))
        return ptr;
    throw std::bad_alloc();
}

} // namespace

void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void* ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void* ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void* ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void* ptr, std::size_t) noexcept
{
    std::free(ptr);
}

namespace rsqp
{
namespace
{

using test::randomSparse;
using test::randomSpdUpper;
using test::randomVector;

TEST(PcgAllocation, CountingHookObservesAllocations)
{
    const std::uint64_t before = allocationCount();
    Vector* v = new Vector(64, 1.0);
    delete v;
    EXPECT_GT(allocationCount(), before);
}

TEST(PcgAllocation, SteadyStatePcgLoopIsAllocationFree)
{
    // Large tridiagonal system: above kParallelThreshold, so the
    // reductions take the fixed-grain chunked path — which at one
    // effective thread must run as a plain loop with no partials
    // buffer, no std::function, no pool handshake.
    NumThreadsScope scope(1);
    const Index n = 3 * kParallelThreshold;
    TripletList triplets(n, n);
    for (Index i = 0; i < n; ++i) {
        triplets.add(i, i, 4.0);
        if (i + 1 < n)
            triplets.add(i, i + 1, -1.0);
    }
    const CscMatrix p = CscMatrix::fromTriplets(triplets);
    const CscMatrix a(0, n);
    const ReducedKktOperator op(p, a, 1e-6, Vector{});
    const JacobiPreconditioner precond(op.diagonal());
    Rng rng(61);
    const Vector b = randomVector(n, rng);

    PcgSettings settings;
    settings.adaptiveTolerance = false;
    settings.epsRel = 1e-10;

    PcgWorkspace workspace;
    Vector x(static_cast<std::size_t>(n), 0.0);
    const PcgResult warmup =
        pcgSolve(op, precond, b, x, settings, workspace);
    ASSERT_TRUE(warmup.converged);
    ASSERT_GT(warmup.iterations, 2);

    x.assign(x.size(), 0.0);  // reuses capacity
    const std::uint64_t before = allocationCount();
    Index iterations = 0;
    for (int repeat = 0; repeat < 3; ++repeat) {
        x.assign(x.size(), 0.0);
        const PcgResult result =
            pcgSolve(op, precond, b, x, settings, workspace);
        iterations += result.iterations;
    }
    const std::uint64_t after = allocationCount();
    EXPECT_EQ(after - before, 0u)
        << "allocations across " << iterations << " CG iterations";
}

TEST(PcgAllocation, IndirectSolverSteadyStateIsAllocationFree)
{
    NumThreadsScope scope(1);
    Rng rng(67);
    const CscMatrix p = randomSpdUpper(40, 0.2, rng);
    const CscMatrix a = randomSparse(25, 40, 0.2, rng);
    const Vector rho = constantVector(25, 0.8);
    PcgSettings settings;
    settings.epsRel = 1e-10;
    settings.adaptiveTolerance = false;
    IndirectKktSolver solver(p, a, 1e-6, rho, settings);

    const Vector rhs_x = randomVector(40, rng);
    const Vector rhs_z = randomVector(25, rng);
    Vector x, z;
    solver.solve(rhs_x, rhs_z, x, z);  // warm-up sizes every buffer

    // Perturb the rhs between solves so the warm start does not
    // short-circuit the loop (capacity reuse keeps this alloc-free).
    Vector rhs_x2 = rhs_x;
    const std::uint64_t before = allocationCount();
    for (int repeat = 0; repeat < 4; ++repeat) {
        for (std::size_t i = 0; i < rhs_x2.size(); ++i)
            rhs_x2[i] = rhs_x[i] * (1.0 + 0.01 * (repeat + 1));
        const KktSolveStats stats = solver.solve(rhs_x2, rhs_z, x, z);
        ASSERT_EQ(stats.pcgBreakdown, PcgBreakdown::None);
    }
    const std::uint64_t after = allocationCount();
    EXPECT_EQ(after - before, 0u);
}

TEST(PcgAllocation, UpdateRhoIsAllocationFreeAfterWarmup)
{
    NumThreadsScope scope(1);
    Rng rng(71);
    const CscMatrix p = randomSpdUpper(30, 0.25, rng);
    const CscMatrix a = randomSparse(18, 30, 0.25, rng);
    PcgSettings settings;
    IndirectKktSolver solver(p, a, 1e-6, constantVector(18, 0.5),
                             settings);

    Vector rho2 = constantVector(18, 1.5);
    solver.updateRho(rho2);  // warm-up
    const std::uint64_t before = allocationCount();
    for (int repeat = 0; repeat < 3; ++repeat) {
        for (Real& v : rho2)
            v += 0.25;
        solver.updateRho(rho2);
    }
    const std::uint64_t after = allocationCount();
    EXPECT_EQ(after - before, 0u);
}

} // namespace
} // namespace rsqp
