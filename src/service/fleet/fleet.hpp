/**
 * @file
 * The multi-core device fleet: N simulated solver cores behind one
 * service front-end, mirroring the 16-56 solver-core FPGA deployments
 * the paper's economics assume.
 *
 * Each core owns its slice of the serving state: a private
 * customization-cache partition (an artifact is hot on exactly the
 * core its structures route to), bounded run slots (a core is one
 * device: one instruction stream at a time unless configured wider),
 * per-admission-class ready queues drained by smooth weighted
 * round-robin (so Realtime traffic keeps its configured share of the
 * core even while Batch work is backed up behind it), and per-core
 * metrics (jobs, streams, busy time, utilization, queue depth, cache
 * hits) registered as labeled series in the service's metrics
 * registry.
 *
 * Co-scheduling models `mib_sched.py`'s temporal instruction
 * interleaving: when several *small* QPs are queued on one core, the
 * fleet fuses up to `interleaveWidth` of them into one instruction
 * stream — one dispatch, one run-slot occupancy window — instead of
 * cycling the core per tiny job.
 *
 * The fleet is a passive component: every method must be called under
 * the owning SolverService's lock. Execution still happens on the
 * shared thread pool; cores model placement and occupancy, not
 * threads. As in the paper's deployment, cores do not fail.
 */

#ifndef RSQP_SERVICE_FLEET_FLEET_HPP
#define RSQP_SERVICE_FLEET_FLEET_HPP

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "common/timer.hpp"
#include "service/admission.hpp"
#include "service/customization_cache.hpp"
#include "service/fleet/placement.hpp"
#include "telemetry/metrics.hpp"

namespace rsqp
{

/** Handle of one open session (never reused within a service). */
using SessionId = Count;

/** One placed session waiting in a core's ready queue. */
struct ReadyEntry
{
    SessionId id = 0;
    /** Admission class of the session's head job — the weighted-fair
     *  dispatch key. */
    AdmissionClass cls = AdmissionClass::Interactive;
    /** Head job's n + m is under the interleaving threshold. */
    bool small = false;
};

/** Fleet shape and placement behavior, fixed at service construction. */
struct FleetConfig
{
    /** Simulated solver cores (>= 1). */
    unsigned coreCount = 1;
    /**
     * Concurrent instruction streams per core. 0 = auto: with one
     * core, the service's legacy maxConcurrency (exact pre-fleet
     * behavior); with more, 1 — a core is one device.
     */
    unsigned slotsPerCore = 0;
    /** Ready-queue depth beyond which affinity spills to least-loaded. */
    std::size_t affinityQueueBound = 4;
    /** Max small QPs fused into one interleaved instruction stream
     *  (effective only with coreCount > 1; 1 disables fusing). */
    unsigned interleaveWidth = 4;
    /** A job with n + m <= this counts as small (interleavable). */
    Index smallJobThreshold = 128;
    /** Per-core cache partition capacity (0 = the service's
     *  cacheCapacity in every partition). */
    std::size_t cacheCapacityPerCore = 0;
};

/** Point-in-time counters of one solver core. */
struct CoreStats
{
    std::size_t core = 0;
    Count jobs = 0;            ///< jobs executed to completion
    Count streams = 0;         ///< instruction streams dispatched
    Count interleavedJobs = 0; ///< jobs that ran fused with others
    double busySeconds = 0.0;  ///< wall time streams held this core
    /** Simulated device occupancy: sum of the jobs' modeled on-device
     *  run times. Host-load independent, so scaling benches gate on
     *  it instead of wall clock. */
    double deviceSeconds = 0.0;
    double utilizationPercent = 0.0; ///< busy / (wall * slots)
    std::size_t readySessions = 0;   ///< placed, waiting for a slot
    unsigned runningStreams = 0;
    CustomizationCacheStats cache;   ///< this core's partition
};

/** Fleet-wide snapshot: one entry per core. */
struct FleetStats
{
    double wallSeconds = 0.0;    ///< since fleet construction
    std::vector<CoreStats> cores;
};

/** The core array + placement state (externally locked; see file
 *  comment). */
class SolverFleet
{
  public:
    /**
     * @param default_cache_capacity Partition capacity when the config
     *        leaves cacheCapacityPerCore at 0.
     * @param legacy_concurrency Run slots of a single-core fleet when
     *        slotsPerCore is auto (the pre-fleet maxConcurrency).
     * @param admission Class weights driving each core's weighted-fair
     *        ready-queue dispatch.
     * @param registry Receives the per-core labeled series; must
     *        outlive the fleet.
     */
    SolverFleet(const FleetConfig& config,
                std::size_t default_cache_capacity,
                unsigned legacy_concurrency,
                const AdmissionConfig& admission,
                telemetry::MetricsRegistry& registry);

    std::size_t coreCount() const { return cores_.size(); }
    unsigned slotsPerCore() const { return slots_; }

    /** This core's customization-cache partition (never null). */
    const std::shared_ptr<CustomizationCache>&
    coreCache(std::size_t core) const
    {
        return cores_[core].cache;
    }

    /** Route a ready session by its head job's fingerprint. */
    std::size_t placeSession(const StructureFingerprint& fp) const;

    /** Append a placed session to its core's ready queue, under the
     *  head job's admission class. */
    void enqueueReady(std::size_t core, SessionId id,
                      AdmissionClass cls, bool small_job);

    /** A free run slot — the service's dispatch gate. */
    bool
    hasCapacity(std::size_t core) const
    {
        return cores_[core].running < slots_;
    }

    std::size_t readyDepth(std::size_t core) const;

    /**
     * Pop the sessions forming the next instruction stream of `core`.
     * Which admission class supplies the stream is decided by smooth
     * weighted round-robin over the core's non-empty class queues
     * (every waiting class earns its weight in credit per decision;
     * the highest credit dispatches, ties going to the more urgent
     * class), so under contention each class drains in proportion to
     * its configured weight instead of strict FIFO. Within the chosen
     * class: one session, or — when the head and its successors are
     * small jobs on a multi-core fleet — up to interleaveWidth of
     * them.
     */
    std::vector<SessionId> popStream(std::size_t core);

    /** A stream of `jobs` jobs took a run slot on `core`. */
    void onStreamLaunched(std::size_t core, std::size_t jobs);

    /** One job of a stream on `core` ran to a status, occupying the
     *  simulated device for `device_seconds` of modeled time. */
    void onJobExecuted(std::size_t core, double device_seconds);

    /** The stream released its slot after `busy_seconds` of wall time. */
    void onStreamFinished(std::size_t core, double busy_seconds);

    /** Sum of every partition's counters (capacity sums too). */
    CustomizationCacheStats aggregateCacheStats() const;

    FleetStats stats() const;

    /** Refresh utilization / queue-depth / cache-hit gauges. */
    void syncGauges() const;

  private:
    struct Core
    {
        /** Ready sessions, one queue per admission class; FIFO within
         *  a class, weighted round-robin across classes. */
        std::array<std::deque<ReadyEntry>, kAdmissionClassCount> ready;
        /** Smooth-WRR credit per class (see popStream). */
        std::array<std::int64_t, kAdmissionClassCount> wrrCredit{};
        unsigned running = 0;    ///< streams holding a slot
        Count jobs = 0;
        Count streams = 0;
        Count interleavedJobs = 0;
        double busySeconds = 0.0;
        double deviceSeconds = 0.0;
        std::shared_ptr<CustomizationCache> cache;

        telemetry::Counter* jobsTotal = nullptr;
        telemetry::Counter* streamsTotal = nullptr;
        telemetry::Counter* interleavedTotal = nullptr;
        telemetry::Counter* busyNsTotal = nullptr;
        telemetry::Gauge* queueDepth = nullptr;
        telemetry::Gauge* utilization = nullptr;
        telemetry::Gauge* cacheHits = nullptr;
    };

    std::vector<CoreLoad> loads() const;

    unsigned slots_;
    unsigned interleave_;
    /** Dispatch weight per admission class (>= 1 each). */
    std::array<std::int64_t, kAdmissionClassCount> classWeights_;
    PlacementScheduler scheduler_;
    std::vector<Core> cores_;
    Timer wall_; ///< utilization denominator
};

} // namespace rsqp

#endif // RSQP_SERVICE_FLEET_FLEET_HPP
