/**
 * @file
 * Admission-plane vocabulary of the async service API: per-request
 * admission classes, the unified SubmitOptions struct every submit
 * path takes, and the cancellation token returned by submitAsync().
 *
 * Admission classes partition traffic by urgency. Each class gets a
 * weighted-fair share of every core's dispatch bandwidth (smooth
 * weighted round-robin over the per-core ready queues), an optional
 * per-class queue-depth bound on top of the service-wide one, and a
 * defined load-shedding order: when the global queue is full, an
 * arriving request of a higher class evicts the newest queued request
 * of the lowest populated class below it — Batch is shed before
 * Interactive, Interactive before Realtime, and a class never sheds
 * its own or a higher class.
 */

#ifndef RSQP_SERVICE_ADMISSION_HPP
#define RSQP_SERVICE_ADMISSION_HPP

#include <array>
#include <cstddef>
#include <memory>

#include "common/types.hpp"

namespace rsqp
{

/**
 * Urgency class of one request. Order is priority order: a smaller
 * value is more urgent, is shed last, and wins weighted-round-robin
 * ties.
 */
enum class AdmissionClass : int
{
    Realtime = 0,    ///< hard-deadline control loops (MPC steps)
    Interactive = 1, ///< a user is waiting (default)
    Batch = 2,       ///< throughput work; first to be shed
};

/** Number of admission classes (array extent for per-class state). */
inline constexpr std::size_t kAdmissionClassCount = 3;

/** Stable lowercase label ("realtime"/"interactive"/"batch") — used
 *  verbatim as the `class` label of rsqp_service_class_* series. */
const char* admissionClassName(AdmissionClass cls);

/** Per-class admission knobs. */
struct AdmissionClassConfig
{
    /** Relative share of each core's dispatch bandwidth under
     *  contention (smooth weighted round-robin; >= 1). */
    unsigned weight = 1;
    /** Max requests of this class waiting across all sessions
     *  (0 = bounded only by ServiceConfig::maxQueueDepth). */
    std::size_t maxQueueDepth = 0;
};

/** The admission plane's class table, fixed at service construction.
 *  Defaults keep a default-config service behaviorally identical to
 *  the pre-class API: no per-class bound, and weighted fairness only
 *  matters once classes actually compete in a queue. */
struct AdmissionConfig
{
    std::array<AdmissionClassConfig, kAdmissionClassCount> classes = {
        AdmissionClassConfig{8, 0}, // Realtime
        AdmissionClassConfig{4, 0}, // Interactive
        AdmissionClassConfig{1, 0}, // Batch
    };

    const AdmissionClassConfig& of(AdmissionClass cls) const
    {
        return classes[static_cast<std::size_t>(cls)];
    }
};

/** Per-request warm-start directive, layered over the session's
 *  autoWarmStart default. */
enum class WarmStartPolicy
{
    SessionDefault, ///< follow SessionConfig::autoWarmStart
    Apply,          ///< warm-start when the previous solution fits
    Skip,           ///< cold-start this request regardless
};

/**
 * Everything a client can say about one request, in one struct — the
 * single options surface of submitAsync()/submit()/solve().
 */
struct SubmitOptions
{
    /** Wall-clock budget in seconds, queue wait included (0 = the
     *  service's defaultDeadlineSeconds). */
    Real deadlineSeconds = 0.0;
    /** Urgency class (see AdmissionClass). */
    AdmissionClass admissionClass = AdmissionClass::Interactive;
    /** Let this request consult/publish the customization cache. Off,
     *  a structure change customizes privately — for one-off odd
     *  structures that would otherwise evict hot artifacts. */
    bool cacheable = true;
    /** Warm-start directive for this request. */
    WarmStartPolicy warmStart = WarmStartPolicy::SessionDefault;
};

/**
 * Handle to one in-flight request, returned by submitAsync(). Holds a
 * weak reference only: it never extends the request's lifetime, and a
 * default-constructed token cancels nothing. Pass it back to
 * SolverService::cancel() to revoke the request while it still waits
 * in the admission queue.
 */
struct RequestToken
{
    /** True while the request object is alive (queued, launched, or
     *  about to resolve); false once resolved and released, or for a
     *  default-constructed token. */
    bool valid() const { return !handle.expired(); }

    /** Opaque reference to the service's internal job record. */
    std::weak_ptr<void> handle;
};

} // namespace rsqp

#endif // RSQP_SERVICE_ADMISSION_HPP
