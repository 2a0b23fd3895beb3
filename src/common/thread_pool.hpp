/**
 * @file
 * Fixed-size worker pool shared by the hot execution paths: the
 * parallel vector kernels (linalg/vector_ops), the simulated SpMV
 * engine lanes (arch/machine), the fused reduced-KKT apply
 * (linalg/kkt) and the service's concurrent solves
 * (service/service).
 *
 * Design goals, in priority order:
 *
 *  1. **Determinism.** Numeric results must not depend on the thread
 *     count or on scheduling. parallelFor partitions a range into
 *     chunks of a *fixed* grain, so the chunk boundaries depend only on
 *     the range and grain; reduceSum stores one partial per chunk in a
 *     pre-allocated slot and combines the partials in ascending chunk
 *     order. A reduction therefore produces bitwise-identical results
 *     run-to-run at any thread count (1 included).
 *  2. **Nested safety.** A parallelFor issued from inside a pool task
 *     runs inline (serially) instead of re-entering the pool, so
 *     nested parallel regions (e.g. a threaded kernel inside a
 *     solve the service runs on the pool) can never deadlock and
 *     never oversubscribe.
 *  3. **Exact legacy fallback.** With an effective thread count of 1
 *     the pool is bypassed entirely: the body runs inline on the
 *     calling thread.
 *
 * The effective thread count is resolved per calling thread: the
 * innermost NumThreadsScope override if one is active, else the
 * hardware thread count, read once per process. Every parallel gate
 * tests the range size (and nesting) before it asks for the count.
 */

#ifndef RSQP_COMMON_THREAD_POOL_HPP
#define RSQP_COMMON_THREAD_POOL_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "telemetry/config.hpp"

namespace rsqp
{

/**
 * Hardware thread count (always >= 1), read from the OS on the first
 * call and cached for the life of the process; the global pool is
 * sized from the same value.
 */
unsigned hardwareConcurrency();

/**
 * Thread count the calling thread would use for a parallel region
 * (>= 1): the innermost NumThreadsScope override, else
 * hardwareConcurrency().
 */
Index effectiveNumThreads();

/**
 * RAII thread-local override of the effective thread count, used to
 * plumb the OsqpSettings / ArchConfig num_threads knobs down to the
 * kernels without widening every call signature. 0 = inherit.
 */
class NumThreadsScope
{
  public:
    explicit NumThreadsScope(Index n);
    ~NumThreadsScope();

    NumThreadsScope(const NumThreadsScope&) = delete;
    NumThreadsScope& operator=(const NumThreadsScope&) = delete;

  private:
    Index prev_;
};

/** Fixed-size worker pool with deterministic partitioned reductions. */
class ThreadPool
{
  public:
    /** Spawn num_workers worker threads (0 = everything runs inline). */
    explicit ThreadPool(unsigned num_workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads (the caller participates on top). */
    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Fire-and-forget task; safe to call from inside a pool task. */
    void submit(std::function<void()> task);

    /** Block until the submit() queue is empty and all tasks finished. */
    void waitIdle();

    /**
     * Apply fn(chunk_begin, chunk_end) over [begin, end) partitioned
     * into grain-sized chunks, using at most max_workers threads
     * (0 = the caller's effectiveNumThreads()). Blocks until every
     * chunk finished — but not until every queued helper task was
     * dequeued: helpers that start after the range is drained no-op
     * against heap-owned region state, so a busy pool never stalls an
     * unrelated caller. The first exception thrown by fn is rethrown
     * here. Runs inline when the budget is 1, the range is a single
     * chunk, or the caller is already inside a pool task.
     */
    void parallelFor(Index begin, Index end, Index grain,
                     const std::function<void(Index, Index)>& fn,
                     unsigned max_workers = 0);

    /**
     * Deterministic partitioned sum: partial(chunk_begin, chunk_end)
     * is evaluated once per fixed grain-sized chunk and the partials
     * are combined in ascending chunk order — the result depends only
     * on (begin, end, grain), never on the thread count.
     */
    Real reduceSum(Index begin, Index end, Index grain,
                   const std::function<Real(Index, Index)>& partial,
                   unsigned max_workers = 0);

    /** Like reduceSum but combining with max (order-insensitive). */
    Real reduceMax(Index begin, Index end, Index grain, Real identity,
                   const std::function<Real(Index, Index)>& partial,
                   unsigned max_workers = 0);

    /** The shared process-wide pool used by all rsqp kernels. */
    static ThreadPool& global();

    /** Is the calling thread inside a task of any ThreadPool? */
    static bool insideWorker();

  private:
    /**
     * Queue element: the task plus its enqueue timestamp, so workers
     * can report queue-wait time to the metrics registry. The stamp
     * compiles out with the rest of the timed telemetry.
     */
    struct QueuedTask
    {
        std::function<void()> fn;
#if RSQP_TELEMETRY_ENABLED
        std::uint64_t enqueuedNs = 0;
#endif
    };

    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<QueuedTask> queue_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::size_t inFlight_ = 0;
    bool stop_ = false;
};

/** Grain (elements per chunk) of the deterministic reductions. */
inline constexpr Index kParallelGrain = 4096;

/** Minimum range length before a kernel goes parallel. */
inline constexpr Index kParallelThreshold = 8192;

/**
 * Convenience wrapper over the global pool: chunk [0, n) with the
 * default grain when worthwhile, else run body(0, n) inline. Templated
 * on the body so the inline path never materializes a std::function —
 * a serial caller (1 effective thread, small range, or nested inside a
 * worker) performs zero heap allocations here, which the steady-state
 * PCG loop relies on.
 */
template <typename Body>
inline void
parallelForRange(Index n, Body&& body)
{
    if (n <= 0)
        return;
    if (n < kParallelThreshold || effectiveNumThreads() <= 1 ||
        ThreadPool::insideWorker()) {
        body(0, n);
        return;
    }
    ThreadPool::global().parallelFor(0, n, kParallelGrain,
                                     std::forward<Body>(body));
}

} // namespace rsqp

#endif // RSQP_COMMON_THREAD_POOL_HPP
