/**
 * @file
 * Lightweight hot-path profiler for the matrix-free KKT pipeline.
 *
 * The indirect (PCG) backend spends essentially all of its time in six
 * kernel families: the P pass and the fused A/A' pass of the reduced
 * operator, the A' pass of the reduced-rhs build, the fused CG vector
 * updates, the preconditioner apply and the dot/norm reductions. Each
 * family gets a nanosecond accumulator and a call counter so a solve
 * can report exactly where its wall clock went — the software twin of
 * the per-stage utilization counters an RSQP bitstream exposes over its
 * status registers.
 *
 * Activation is scoped, not global: a HotPathProfilerScope installs a
 * profiler in a thread-local slot and every ProfileScope constructed on
 * that thread while the slot is non-null records into it. With no
 * active profiler a ProfileScope is two branches and no clock read, so
 * instrumented kernels stay cheap for callers that never profile.
 * Counters are relaxed atomics: concurrent batch solves each install
 * their own profiler on their own thread, and a snapshot taken while
 * another thread records still reads consistent per-cell values.
 */

#ifndef RSQP_COMMON_PROFILE_HPP
#define RSQP_COMMON_PROFILE_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace rsqp
{

/** Kernel families of the indirect-backend hot path. */
enum class ProfilePhase
{
    SpmvP,          ///< y = (P + sigma I) x row-gather (full-CSR P)
    SpmvA,          ///< fused y += A' diag(rho) A x pass; also z = A x
    SpmvAt,         ///< reduced-rhs build y += A' diag(rho) x (A's CSC)
    FusedVectorOps, ///< fused CG updates (axpyDot, xMinusAlphaPDot, ...)
    Precond,        ///< Jacobi apply (+ fused dot)
    Reduction,      ///< stand-alone dot / norm reductions
};

/** Number of ProfilePhase values. */
inline constexpr std::size_t kNumProfilePhases = 6;

/** Snake-case phase name used as the JSON key. */
const char* toString(ProfilePhase phase);

/** Accumulated cost of one phase. */
struct ProfilePhaseStats
{
    std::uint64_t nanoseconds = 0;
    std::uint64_t calls = 0;
};

/** Plain snapshot of a HotPathProfiler, safe to copy and compare. */
struct HotPathProfile
{
    std::array<ProfilePhaseStats, kNumProfilePhases> phases;

    const ProfilePhaseStats&
    operator[](ProfilePhase phase) const
    {
        return phases[static_cast<std::size_t>(phase)];
    }

    /** Sum of the per-phase nanosecond accumulators. */
    std::uint64_t totalNanoseconds() const;

    /** Sum of the per-phase call counters. */
    std::uint64_t totalCalls() const;

    /**
     * One-line JSON object: a {"ns": ..., "calls": ...} entry per phase
     * keyed by toString(phase), plus "total_ns" and "total_calls".
     */
    std::string toJson() const;
};

/** Thread-safe accumulator the scoped timers record into. */
class HotPathProfiler
{
  public:
    /** Add one timed call to a phase. */
    void
    record(ProfilePhase phase, std::uint64_t nanoseconds)
    {
        Cell& cell = cells_[static_cast<std::size_t>(phase)];
        cell.nanoseconds.fetch_add(nanoseconds,
                                   std::memory_order_relaxed);
        cell.calls.fetch_add(1, std::memory_order_relaxed);
    }

    /** Zero every counter. */
    void reset();

    /** Copy the counters into a plain HotPathProfile. */
    HotPathProfile snapshot() const;

  private:
    struct Cell
    {
        std::atomic<std::uint64_t> nanoseconds{0};
        std::atomic<std::uint64_t> calls{0};
    };

    std::array<Cell, kNumProfilePhases> cells_;
};

/** Profiler the calling thread currently records into (may be null). */
HotPathProfiler* activeHotPathProfiler();

/**
 * RAII activation of a profiler for the calling thread; restores the
 * previous active profiler (scopes nest). Passing nullptr suspends
 * profiling for the scope's lifetime.
 */
class HotPathProfilerScope
{
  public:
    explicit HotPathProfilerScope(HotPathProfiler* profiler);
    ~HotPathProfilerScope();

    HotPathProfilerScope(const HotPathProfilerScope&) = delete;
    HotPathProfilerScope& operator=(const HotPathProfilerScope&) = delete;

  private:
    HotPathProfiler* prev_;
};

/**
 * Scoped timer: records the enclosed region into the calling thread's
 * active profiler, or does nothing when no profiler is active.
 */
class ProfileScope
{
  public:
    explicit ProfileScope(ProfilePhase phase)
        : profiler_(activeHotPathProfiler()), phase_(phase)
    {
        if (profiler_ != nullptr)
            start_ = std::chrono::steady_clock::now();
    }

    ~ProfileScope()
    {
        if (profiler_ != nullptr) {
            const auto dt = std::chrono::steady_clock::now() - start_;
            profiler_->record(
                phase_,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        dt)
                        .count()));
        }
    }

    ProfileScope(const ProfileScope&) = delete;
    ProfileScope& operator=(const ProfileScope&) = delete;

  private:
    HotPathProfiler* profiler_;
    ProfilePhase phase_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace rsqp

#endif // RSQP_COMMON_PROFILE_HPP
