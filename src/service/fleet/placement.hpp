/**
 * @file
 * Placement scheduler of the multi-core device fleet: which solver
 * core gets the next ready session.
 *
 * The real deployment packs 16-56 solver cores per FPGA; which core a
 * job lands on decides whether the per-structure customization
 * artifact is already resident. Placement therefore maps a
 * structure fingerprint to a *stable* preferred core — a pure function
 * of the fingerprint, so identical structures route identically across
 * service restarts — and falls back to the least-loaded core only
 * when the preferred core's queue exceeds its bound (hot structure,
 * saturated core: better a cold customization than an idle fleet).
 */

#ifndef RSQP_SERVICE_FLEET_PLACEMENT_HPP
#define RSQP_SERVICE_FLEET_PLACEMENT_HPP

#include <cstddef>
#include <vector>

#include "service/fingerprint.hpp"

namespace rsqp
{

/** Load summary of one core, as seen by the placement decision. */
struct CoreLoad
{
    std::size_t queuedSessions = 0; ///< ready sessions waiting
    unsigned runningStreams = 0;    ///< instruction streams in flight
};

/**
 * The placement decision. Pure: the same (fingerprint, loads) always
 * yields the same core, which the determinism tests — and
 * restart-stable affinity — rely on.
 */
class PlacementScheduler
{
  public:
    PlacementScheduler(std::size_t core_count,
                       std::size_t affinity_queue_bound);

    /** Pick the core for a session whose head job has fingerprint
     *  `fp`, given the current per-core loads (size == coreCount). */
    std::size_t place(const StructureFingerprint& fp,
                      const std::vector<CoreLoad>& loads) const;

    /**
     * The affinity target: a pure function of the fingerprint digest,
     * identical across processes and restarts. Non-cacheable
     * fingerprints have no artifact to be hot and get no preference.
     */
    static std::size_t preferredCore(const StructureFingerprint& fp,
                                     std::size_t core_count);

  private:
    /** Lowest-index core among those with minimal total load. */
    static std::size_t leastLoaded(const std::vector<CoreLoad>& loads);

    std::size_t coreCount_;
    std::size_t bound_;
};

} // namespace rsqp

#endif // RSQP_SERVICE_FLEET_PLACEMENT_HPP
