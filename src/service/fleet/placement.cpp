#include "service/fleet/placement.hpp"

namespace rsqp
{

PlacementScheduler::PlacementScheduler(std::size_t core_count,
                                       std::size_t affinity_queue_bound)
    : coreCount_(core_count == 0 ? 1 : core_count),
      bound_(affinity_queue_bound)
{
}

std::size_t
PlacementScheduler::preferredCore(const StructureFingerprint& fp,
                                  std::size_t core_count)
{
    if (core_count <= 1)
        return 0;
    // Final avalanche over both digest lanes: the modulo must not
    // expose lane structure, or neighboring structures would pile
    // onto neighboring cores.
    std::uint64_t mixed = fp.hi ^ (fp.lo + 0x9e3779b97f4a7c15ULL +
                                   (fp.hi << 6) + (fp.hi >> 2));
    mixed ^= mixed >> 33;
    mixed *= 0xff51afd7ed558ccdULL;
    mixed ^= mixed >> 33;
    return static_cast<std::size_t>(mixed % core_count);
}

std::size_t
PlacementScheduler::leastLoaded(const std::vector<CoreLoad>& loads)
{
    std::size_t best = 0;
    std::size_t bestLoad = ~static_cast<std::size_t>(0);
    for (std::size_t core = 0; core < loads.size(); ++core) {
        const std::size_t load =
            loads[core].queuedSessions + loads[core].runningStreams;
        // Strict comparison: ties resolve to the lowest index.
        if (load < bestLoad) {
            bestLoad = load;
            best = core;
        }
    }
    return best;
}

std::size_t
PlacementScheduler::place(const StructureFingerprint& fp,
                          const std::vector<CoreLoad>& loads) const
{
    if (coreCount_ <= 1 || loads.size() <= 1)
        return 0;
    if (!fp.cacheable)  // no artifact can ever be hot for it
        return leastLoaded(loads);
    const std::size_t preferred = preferredCore(fp, coreCount_);
    if (loads[preferred].queuedSessions > bound_)
        return leastLoaded(loads);
    return preferred;
}

} // namespace rsqp
