/**
 * @file
 * Multi-client QP solving service: session registry + weighted-fair
 * admission plane over the shared thread pool, executing on a
 * multi-core device fleet.
 *
 * The client surface is asynchronous: submitAsync() takes a
 * SubmitOptions (deadline, admission class, cacheability, warm-start
 * policy) and a completion callback invoked exactly once, off the
 * service lock, with the request's SessionResult; it returns a
 * RequestToken that cancel() can revoke while the request still waits
 * in the queue. submit() is a thin future adapter over submitAsync(),
 * and solve() is submit().get().
 *
 * The service owns one SolverSession per client and a SolverFleet of
 * N simulated solver cores (each with its own customization-cache
 * partition, run slots, and metrics), and turns concurrent
 * submissions into a deterministic execution: requests of the *same*
 * session run strictly in submission order (a session is never on two
 * workers at once), while different sessions run in parallel up to
 * the fleet's slot capacity. Ready sessions are routed onto cores by
 * the placement scheduler — structure-fingerprint affinity, so
 * same-structure jobs land where the customization artifact is
 * already hot — and drained per-core by smooth weighted
 * round-robin across admission classes, so Realtime work keeps its
 * configured share of every core under Batch backlog. Combined with
 * the pool's deterministic kernels this makes every session's result
 * stream independent of load, scheduling, and core count.
 *
 * Admission control is explicit and non-blocking: each class has an
 * optional depth bound on top of the service-wide one, and when the
 * global queue is full an arriving request of a higher class sheds
 * the newest queued request of the lowest populated class below it
 * (Batch before Interactive before Realtime). Overflow and shed both
 * resolve SolveStatus::Rejected immediately — carrying a class-aware
 * retryAfterSeconds back-off hint sized to the class's backlog, its
 * weighted share of the slot capacity and the measured mean execute
 * time — and a request whose deadline expires while waiting yields
 * SolveStatus::TimeLimitReached without ever touching the session's
 * solver state.
 */

#ifndef RSQP_SERVICE_SERVICE_HPP
#define RSQP_SERVICE_SERVICE_HPP

#include <array>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "service/admission.hpp"
#include "service/fleet/fleet.hpp"
#include "service/session.hpp"
#include "telemetry/metrics.hpp"

namespace rsqp
{

/** Completion token of submitAsync(): invoked exactly once per
 *  admitted or rejected request, never under the service lock. */
using SolveCallback = std::function<void(SessionResult)>;

/** Service-wide configuration, fixed at construction. */
struct ServiceConfig
{
    /** Max requests waiting across all sessions; overflow is shed
     *  from a lower class or Rejected. */
    std::size_t maxQueueDepth = 64;
    /** Max sessions solving at once on a single-core fleet (0 =
     *  execution.numThreads, then effectiveNumThreads(), the hardware
     *  thread count outside any NumThreadsScope, when that is 0 too).
     *  With coreCount > 1 concurrency is the fleet's slot capacity
     *  instead (see FleetConfig::slotsPerCore). */
    unsigned maxConcurrency = 0;
    /** Customization-cache capacity in artifacts per core partition
     *  (0 disables). */
    std::size_t cacheCapacity = 16;
    /** Deadline applied when a request passes none (0 = unlimited). */
    Real defaultDeadlineSeconds = 0.0;
    /** Smallest retry-after hint attached to an overflow rejection
     *  (seconds); the estimate never reports "retry immediately". */
    Real retryAfterFloorSeconds = 0.001;
    /** Per-class weights and depth bounds of the admission plane. */
    AdmissionConfig admission;
    /** Execution resources: default concurrency cap of the service. */
    ExecutionConfig execution;
    /** Enable the global trace recorder for the service's lifetime. */
    bool tracing = false;
    /** Device-fleet shape: core count, run slots, interleaving. */
    FleetConfig fleet;
};

/** Per-admission-class slice of the service counters. */
struct ClassStats
{
    Count submitted = 0;
    Count completed = 0; ///< ran to a solver status
    Count solved = 0;    ///< completed with SolveStatus::Solved (goodput)
    Count rejected = 0;  ///< per-class or global bound hit on arrival
    Count shed = 0;      ///< evicted from the queue by a higher class
    Count cancelled = 0; ///< revoked via RequestToken before launch
    Count expired = 0;   ///< deadline passed while queued
    std::size_t queueDepth = 0; ///< waiting right now
};

/** Service-wide counter snapshot. */
struct ServiceStats
{
    Count submitted = 0;
    Count completed = 0;  ///< ran to a solver status
    Count rejected = 0;   ///< queue overflow / unknown or closed session
    Count expired = 0;    ///< deadline passed while queued
    Count cancelled = 0;  ///< revoked via RequestToken before launch
    Count shed = 0;       ///< queued jobs evicted by a higher class
    Count shutdownDrained = 0; ///< resolved ShuttingDown by the dtor
    Count retryAfterHints = 0; ///< rejections that carried a hint
    /** Hint attached to the most recent overflow rejection (s). */
    double lastRetryAfterSeconds = 0.0;
    std::size_t queueDepth = 0;      ///< requests waiting right now
    std::size_t peakQueueDepth = 0;  ///< high-water mark
    std::size_t openSessions = 0;
    /** Aggregated over every core's cache partition. */
    CustomizationCacheStats cache;
    /** Per-class slices (indexed by AdmissionClass). */
    std::array<ClassStats, kAdmissionClassCount> perClass;

    const ClassStats& of(AdmissionClass cls) const
    {
        return perClass[static_cast<std::size_t>(cls)];
    }
};

/** The multi-client front-end (see file comment). */
class SolverService
{
  public:
    explicit SolverService(ServiceConfig config = ServiceConfig());

    /**
     * Shutdown contract: requests that are already executing (or
     * fused into a launched stream) run to their real status; requests
     * still waiting in a queue resolve immediately with
     * SolveStatus::ShuttingDown — shed load, deliberately distinct
     * from Rejected so clients can tell "service went away" from "I
     * sent something bad". Blocks until every admitted request has
     * resolved; no callback is ever abandoned.
     */
    ~SolverService();

    SolverService(const SolverService&) = delete;
    SolverService& operator=(const SolverService&) = delete;

    /** Register a client; its solver state lives until closeSession. */
    SessionId openSession(SessionConfig config = SessionConfig());

    /**
     * Close a session: queued requests complete as Rejected, a running
     * request finishes normally, and the solver state is dropped.
     */
    void closeSession(SessionId id);

    /**
     * Enqueue one request; `callback` receives its SessionResult
     * exactly once, off the service lock, on whichever thread resolves
     * the request (a pool worker, a canceller, or — for an immediate
     * rejection — the caller itself, before submitAsync returns).
     * Never blocks on solver work: overflow beyond the class/global
     * queue bounds and unknown/closed sessions resolve Rejected
     * immediately (overflow carries a class-aware retryAfterSeconds
     * hint). A positive options.deadlineSeconds (queue wait included)
     * expires queued requests to TimeLimitReached and hands the
     * remaining budget to the session as the solve's time budget.
     *
     * The returned token stays valid until the request resolves; pass
     * it to cancel() to revoke the request while it still waits.
     */
    RequestToken submitAsync(SessionId id, QpProblem problem,
                             SubmitOptions options,
                             SolveCallback callback);

    /**
     * Revoke a queued request. Returns true — and resolves the
     * request's callback with SolveStatus::Cancelled, exactly once —
     * only while the request is still waiting in its session's queue;
     * once launched (or already resolved) the request runs to its
     * real status and cancel returns false. Session solver state is
     * never touched by a cancellation.
     */
    bool cancel(const RequestToken& token);

    /** submitAsync() wrapped in a std::future. */
    std::future<SessionResult> submit(SessionId id, QpProblem problem,
                                      SubmitOptions options = {});

    /** submit() + get(): the synchronous convenience path. */
    SessionResult solve(SessionId id, QpProblem problem,
                        SubmitOptions options = {});

    /** Block until no request is queued or running. */
    void waitIdle();

    ServiceStats stats() const;

    /** Per-session counters (zeros for unknown sessions). */
    SessionStats sessionStats(SessionId id) const;

    /** Per-core fleet snapshot: jobs, streams, utilization, caches. */
    FleetStats fleetStats() const;

    /**
     * Point-in-time snapshot of the service registry (queue depth,
     * admission counters, per-class rsqp_service_class_* series,
     * cache effectiveness, per-session solve counts, per-core fleet
     * gauges, wait/execute histograms).
     */
    telemetry::MetricsSnapshot metricsSnapshot() const;

    /** metricsSnapshot() in Prometheus text exposition format. */
    std::string metricsText() const;

    /**
     * Drain the global trace recorder as Chrome trace_event JSON
     * (spans recorded by every solve that ran while tracing was
     * enabled; empty under -DRSQP_TELEMETRY=OFF).
     */
    std::string dumpTrace() const;

    /** The registry backing stats()/metricsText() (test access). */
    telemetry::MetricsRegistry& registry() { return registry_; }

    /** Core 0's customization-cache partition (never null; the whole
     *  cache of a default single-core fleet). */
    const std::shared_ptr<CustomizationCache>& cache() const
    {
        return cache_;
    }

  private:
    struct Job
    {
        QpProblem problem;
        /** The request's options verbatim (class, cacheability,
         *  warm-start policy); the resolved deadline lives below. */
        SubmitOptions options;
        SessionId session = 0;   ///< owner (cancel's lookup key)
        Real deadline = 0.0;     ///< seconds, 0 = unlimited
        std::chrono::steady_clock::time_point enqueued;
        /** Invoked exactly once by whichever path resolves the job. */
        SolveCallback callback;
        /** Placement key (structure-only, value-blind). */
        StructureFingerprint fp;
        /** n + m under the fleet's interleaving threshold. */
        bool small = false;
    };

    struct SessionState
    {
        std::unique_ptr<SolverSession> session;
        std::deque<std::shared_ptr<Job>> pending;
        bool running = false;
        bool open = true;
        /** Copied under the service lock after every finished job, so
         *  sessionStats() never races with a worker mid-solve. */
        SessionStats statsSnapshot;
        /** Registry counter "...session_solves_total{session=...}". */
        telemetry::Counter* solvesCounter = nullptr;
    };

    /** Registry handles of one admission class's labeled series. */
    struct ClassMetrics
    {
        telemetry::Counter* submitted = nullptr;
        telemetry::Counter* completed = nullptr;
        telemetry::Counter* solved = nullptr;
        telemetry::Counter* rejected = nullptr;
        telemetry::Counter* shed = nullptr;
        telemetry::Counter* cancelled = nullptr;
        telemetry::Counter* expired = nullptr;
        telemetry::Gauge* queueDepth = nullptr;
        telemetry::Histogram* retryAfterUs = nullptr;
    };

    /** One dispatch decision taken under the lock, launched outside:
     *  an instruction stream of one or more jobs bound to one core. */
    struct Launch
    {
        struct Entry
        {
            SessionId id;
            SessionState* state;
            std::shared_ptr<Job> job;
        };
        std::size_t core = 0;
        std::vector<Entry> entries;
    };

    static std::size_t classIndex(AdmissionClass cls)
    {
        return static_cast<std::size_t>(cls);
    }

    /** Route a newly ready session onto a fleet core (locked). */
    void placeReadyLocked(SessionId id, SessionState& state);

    /** Pop streams off ready cores into `launches`, up to the fleet's
     *  slot capacity (locked). */
    void dispatchLocked(std::vector<Launch>& launches);

    /**
     * Evict the newest queued job of the lowest populated class
     * strictly below `cls` to make room at the full global queue
     * (locked). Returns the evicted job — the caller resolves it
     * Rejected outside the lock — or null when no lower class has
     * queued work.
     */
    std::shared_ptr<Job> shedLowerClassLocked(AdmissionClass cls);

    /** Remove one queued job from the admission accounting (locked). */
    void unqueueLocked(const std::shared_ptr<Job>& job);

    /** Back-off hint for an overflow rejection of `cls`: the class's
     *  backlog over its weighted share of the slot capacity, at the
     *  mean measured execute time (locked). Monotone in the class
     *  backlog, and never smaller for a lower class at equal
     *  backlog. */
    Real retryAfterEstimateLocked(AdmissionClass cls) const;

    /** Count + histogram a hint about to be attached (locked). */
    void recordRetryHintLocked(AdmissionClass cls, Real hint);

    /** Hand collected streams to the thread pool (lock released). */
    void launch(std::vector<Launch>& launches);

    /** Worker-side execution of one instruction stream. */
    void runStream(Launch stream);

    /** Fold a dying session's label series into the retired counter
     *  and drop it from the registry (locked). */
    void retireSessionSeriesLocked(SessionId id, SessionState& state);

    /** Refresh cache/session/fleet gauges from their sources (locked). */
    void syncGaugesLocked() const;

    ServiceConfig config_;
    unsigned maxConcurrency_;

    /**
     * Registry backing every service counter; ServiceStats is
     * assembled from these. The registry outlives every handle the
     * members below cache.
     */
    mutable telemetry::MetricsRegistry registry_;
    /** Core array + placement state; mutated under mutex_ only. */
    SolverFleet fleet_;
    std::shared_ptr<CustomizationCache> cache_;  ///< core 0 partition
    telemetry::Counter& submitted_;
    telemetry::Counter& completed_;
    telemetry::Counter& rejected_;
    telemetry::Counter& expired_;
    telemetry::Counter& cancelled_;
    telemetry::Counter& shedTotal_;
    telemetry::Counter& shutdownDrained_;
    telemetry::Counter& retryAfterHints_;
    telemetry::Counter& retiredSessionSolves_;
    telemetry::Gauge& queueDepth_;
    telemetry::Gauge& peakQueueDepth_;
    telemetry::Gauge& openSessions_;
    telemetry::Gauge& cacheHits_;
    telemetry::Gauge& cacheMisses_;
    telemetry::Gauge& cacheEvictions_;
    telemetry::Gauge& cacheSize_;
    telemetry::Histogram& queueWaitNs_;
    telemetry::Histogram& executeNs_;
    telemetry::Histogram& retryAfterUs_;
    /** rsqp_service_class_*{class="..."} series, one set per class. */
    std::array<ClassMetrics, kAdmissionClassCount> classMetrics_;

    mutable std::mutex mutex_;
    std::condition_variable idleCv_;
    std::unordered_map<SessionId, std::unique_ptr<SessionState>>
        sessions_;
    unsigned activeRuns_ = 0;  ///< streams in flight, fleet-wide
    std::size_t queuedJobs_ = 0;
    /** Waiting requests per admission class (sums to queuedJobs_). */
    std::array<std::size_t, kAdmissionClassCount> classQueued_{};
    SessionId nextId_ = 1;
    bool shuttingDown_ = false;
    double lastRetryAfterSeconds_ = 0.0;
};

} // namespace rsqp

#endif // RSQP_SERVICE_SERVICE_HPP
