/**
 * @file
 * Trace spans: RAII-scoped timed regions recorded into per-thread
 * ring buffers, drained as Chrome trace_event JSON (load the output
 * of drainJson() in chrome://tracing or Perfetto).
 *
 * Spans are the stack's one instrumentation path, from a service
 * request down to the PCG kernels. The hot-path phase spans
 * (kkt.spmv_p, kkt.spmv_a, kkt.spmv_at, pcg.fused_vector_ops,
 * pcg.precond, pcg.reduction) split each indirect KKT solve into its
 * SpMV passes and vector-engine work: the software twin of the
 * per-stage utilization counters an RSQP bitstream exposes over its
 * status registers. Summing them per name over a drain gives the
 * per-phase breakdown (bench_hotpath does exactly that).
 *
 * Cost model: with tracing disabled at runtime a TELEMETRY_SPAN is a
 * relaxed atomic load plus one branch; enabled it adds two
 * steady_clock reads and a short uncontended mutex hold on the
 * calling thread's own ring. Under -DRSQP_TELEMETRY=OFF the macro
 * expands to nothing and no trace code is referenced at all.
 *
 * Rings have fixed capacity; when full, new events overwrite the
 * oldest and the overwritten count is reported as "dropped" by
 * drain(). Span names must be string literals (the recorder stores
 * the pointer, not a copy).
 */

#ifndef RSQP_TELEMETRY_TRACE_HPP
#define RSQP_TELEMETRY_TRACE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/config.hpp"

namespace rsqp::telemetry
{

/** Default per-thread ring capacity, in events. */
inline constexpr std::size_t kDefaultTraceRingCapacity = 8192;

/** Monotonic nanoseconds since the first telemetry clock read. */
std::uint64_t traceNowNs();

/** One completed span. `name` must outlive the recorder (literal). */
struct TraceEvent
{
    const char* name = nullptr;
    std::uint64_t startNs = 0;
    std::uint64_t durationNs = 0;
    std::uint32_t tid = 0;
};

/**
 * Process-wide span sink. Threads append to private rings; drain()
 * collects every ring, empties them, and reports how many events were
 * overwritten since the previous drain.
 */
class TraceRecorder
{
  public:
    static TraceRecorder& global();

    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    void enable() { enabled_.store(true, std::memory_order_relaxed); }

    void
    disable()
    {
        enabled_.store(false, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Ring size for threads that record their first span later on. */
    void setRingCapacity(std::size_t events);

    /** Append one completed span to the calling thread's ring. */
    void record(const char* name, std::uint64_t startNs,
                std::uint64_t durationNs);

    struct DrainResult
    {
        std::vector<TraceEvent> events;  // sorted by startNs
        std::uint64_t dropped = 0;       // overwritten since last drain
    };

    /** Move all buffered events out and reset every ring. */
    DrainResult drain();

    /** drain() rendered as a Chrome trace_event JSON document. */
    std::string drainJson();

  private:
    TraceRecorder() = default;

    struct Ring
    {
        std::mutex mutex;
        std::vector<TraceEvent> events;
        std::size_t capacity = kDefaultTraceRingCapacity;
        std::size_t next = 0;       // overwrite cursor once full
        std::uint64_t dropped = 0;  // overwritten since last drain
        std::uint32_t tid = 0;
    };

    Ring& threadRing();

    std::atomic<bool> enabled_{false};
    std::mutex mutex_;  // guards rings_ and capacity changes
    std::vector<std::unique_ptr<Ring>> rings_;
    std::size_t ringCapacity_ = kDefaultTraceRingCapacity;
    std::uint32_t nextTid_ = 1;
};

/**
 * RAII span: samples the clock in the constructor when tracing is
 * enabled and records on destruction. Use via TELEMETRY_SPAN.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char* name)
    {
        if (TraceRecorder::global().enabled()) {
            name_ = name;
            start_ = traceNowNs();
        }
    }

    ~TraceSpan()
    {
        if (name_ != nullptr)
            TraceRecorder::global().record(name_, start_,
                                           traceNowNs() - start_);
    }

    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

  private:
    const char* name_ = nullptr;
    std::uint64_t start_ = 0;
};

} // namespace rsqp::telemetry

#if RSQP_TELEMETRY_ENABLED
#define RSQP_TELEMETRY_CONCAT_IMPL(a, b) a##b
#define RSQP_TELEMETRY_CONCAT(a, b) RSQP_TELEMETRY_CONCAT_IMPL(a, b)
/** Open a named RAII span covering the rest of the enclosing scope. */
#define TELEMETRY_SPAN(name)                                          \
    ::rsqp::telemetry::TraceSpan RSQP_TELEMETRY_CONCAT(               \
        rsqp_telemetry_span_, __COUNTER__)(name)
#else
#define TELEMETRY_SPAN(name) ((void)0)
#endif

#endif // RSQP_TELEMETRY_TRACE_HPP
