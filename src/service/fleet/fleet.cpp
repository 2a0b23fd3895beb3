#include "service/fleet/fleet.hpp"

#include <algorithm>
#include <string>

namespace rsqp
{

namespace
{

std::string
coreSeries(const char* family, std::size_t core)
{
    return std::string(family) + "{core=\"" + std::to_string(core) +
           "\"}";
}

} // namespace

SolverFleet::SolverFleet(const FleetConfig& config,
                         std::size_t default_cache_capacity,
                         unsigned legacy_concurrency,
                         const AdmissionConfig& admission,
                         telemetry::MetricsRegistry& registry)
    : slots_(config.slotsPerCore != 0
                 ? config.slotsPerCore
                 : (config.coreCount <= 1
                        ? std::max(1u, legacy_concurrency)
                        : 1u)),
      interleave_(config.coreCount > 1
                      ? std::max(1u, config.interleaveWidth)
                      : 1u),
      scheduler_(std::max(1u, config.coreCount), config.affinityQueueBound),
      cores_(std::max(1u, config.coreCount))
{
    for (std::size_t c = 0; c < kAdmissionClassCount; ++c)
        classWeights_[c] = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(admission.classes[c].weight));
    const std::size_t partitionCapacity =
        config.cacheCapacityPerCore != 0 ? config.cacheCapacityPerCore
                                         : default_cache_capacity;
    registry
        .gauge("rsqp_fleet_cores",
               "Simulated solver cores behind the service")
        .set(static_cast<std::int64_t>(cores_.size()));
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        Core& core = cores_[i];
        core.cache =
            std::make_shared<CustomizationCache>(partitionCapacity);
        core.jobsTotal = &registry.counter(
            coreSeries("rsqp_fleet_core_jobs_total", i),
            "Jobs executed on this core");
        core.streamsTotal = &registry.counter(
            coreSeries("rsqp_fleet_core_streams_total", i),
            "Instruction streams dispatched to this core");
        core.interleavedTotal = &registry.counter(
            coreSeries("rsqp_fleet_core_interleaved_jobs_total", i),
            "Jobs that ran fused into a multi-QP stream");
        core.busyNsTotal = &registry.counter(
            coreSeries("rsqp_fleet_core_busy_ns_total", i),
            "Nanoseconds streams held this core");
        core.queueDepth = &registry.gauge(
            coreSeries("rsqp_fleet_core_queue_depth", i),
            "Ready sessions placed on this core");
        core.utilization = &registry.gauge(
            coreSeries("rsqp_fleet_core_utilization_percent", i),
            "Busy time over wall time per run slot");
        core.cacheHits = &registry.gauge(
            coreSeries("rsqp_fleet_core_cache_hits", i),
            "Customization-cache hits in this core's partition");
    }
}

std::vector<CoreLoad>
SolverFleet::loads() const
{
    std::vector<CoreLoad> loads(cores_.size());
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        loads[i].queuedSessions = readyDepth(i);
        loads[i].runningStreams = cores_[i].running;
    }
    return loads;
}

std::size_t
SolverFleet::placeSession(const StructureFingerprint& fp) const
{
    return scheduler_.place(fp, loads());
}

void
SolverFleet::enqueueReady(std::size_t core, SessionId id,
                          AdmissionClass cls, bool small_job)
{
    cores_[core].ready[static_cast<std::size_t>(cls)].push_back(
        ReadyEntry{id, cls, small_job});
}

std::size_t
SolverFleet::readyDepth(std::size_t core) const
{
    std::size_t depth = 0;
    for (const auto& queue : cores_[core].ready)
        depth += queue.size();
    return depth;
}

std::vector<SessionId>
SolverFleet::popStream(std::size_t core)
{
    Core& state = cores_[core];
    std::vector<SessionId> stream;
    // Smooth weighted round-robin across the classes that actually
    // have work: every waiting class earns its weight, the richest
    // class dispatches and pays back the total earned this round.
    // Over a contended stretch each class receives weight/sum of the
    // dispatch decisions; an idle class accrues nothing, so it cannot
    // bank credit and burst-starve the others later.
    std::int64_t earned = 0;
    std::size_t chosen = kAdmissionClassCount;
    for (std::size_t c = 0; c < kAdmissionClassCount; ++c) {
        if (state.ready[c].empty())
            continue;
        state.wrrCredit[c] += classWeights_[c];
        earned += classWeights_[c];
        // Strictly-greater keeps ties on the most urgent class.
        if (chosen == kAdmissionClassCount ||
            state.wrrCredit[c] > state.wrrCredit[chosen])
            chosen = c;
    }
    if (chosen == kAdmissionClassCount)
        return stream;
    state.wrrCredit[chosen] -= earned;
    std::deque<ReadyEntry>& queue = state.ready[chosen];
    // A large head job gets its own stream; a small head job pulls in
    // consecutive small successors up to the interleave width. Only
    // consecutive ones (within the same class): skipping over a large
    // job would reorder the class's queue and starve it.
    const bool fuse = interleave_ > 1 && queue.front().small;
    const std::size_t width = fuse ? interleave_ : 1;
    while (stream.size() < width && !queue.empty() &&
           (stream.empty() || queue.front().small)) {
        stream.push_back(queue.front().id);
        queue.pop_front();
    }
    return stream;
}

void
SolverFleet::onStreamLaunched(std::size_t core, std::size_t jobs)
{
    Core& state = cores_[core];
    ++state.running;
    ++state.streams;
    state.streamsTotal->increment();
    if (jobs > 1) {
        state.interleavedJobs += static_cast<Count>(jobs);
        state.interleavedTotal->add(jobs);
    }
}

void
SolverFleet::onJobExecuted(std::size_t core, double device_seconds)
{
    Core& state = cores_[core];
    ++state.jobs;
    state.deviceSeconds += device_seconds;
    state.jobsTotal->increment();
}

void
SolverFleet::onStreamFinished(std::size_t core, double busy_seconds)
{
    Core& state = cores_[core];
    --state.running;
    state.busySeconds += busy_seconds;
    state.busyNsTotal->add(
        static_cast<std::uint64_t>(busy_seconds * 1e9));
}

CustomizationCacheStats
SolverFleet::aggregateCacheStats() const
{
    CustomizationCacheStats total;
    for (const Core& core : cores_) {
        const CustomizationCacheStats part = core.cache->stats();
        total.hits += part.hits;
        total.misses += part.misses;
        total.evictions += part.evictions;
        total.insertions += part.insertions;
        total.size += part.size;
        total.capacity += part.capacity;
        total.footprintBytes += part.footprintBytes;
    }
    return total;
}

FleetStats
SolverFleet::stats() const
{
    FleetStats stats;
    stats.wallSeconds = wall_.seconds();
    stats.cores.reserve(cores_.size());
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const Core& core = cores_[i];
        CoreStats entry;
        entry.core = i;
        entry.jobs = core.jobs;
        entry.streams = core.streams;
        entry.interleavedJobs = core.interleavedJobs;
        entry.busySeconds = core.busySeconds;
        entry.deviceSeconds = core.deviceSeconds;
        const double denominator = stats.wallSeconds * slots_;
        entry.utilizationPercent =
            denominator > 0.0 ? 100.0 * core.busySeconds / denominator
                              : 0.0;
        entry.readySessions = readyDepth(i);
        entry.runningStreams = core.running;
        entry.cache = core.cache->stats();
        stats.cores.push_back(entry);
    }
    return stats;
}

void
SolverFleet::syncGauges() const
{
    const double wall = wall_.seconds();
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const Core& core = cores_[i];
        core.queueDepth->set(
            static_cast<std::int64_t>(readyDepth(i)));
        const double denominator = wall * slots_;
        core.utilization->set(static_cast<std::int64_t>(
            denominator > 0.0
                ? 100.0 * core.busySeconds / denominator + 0.5
                : 0.0));
        core.cacheHits->set(core.cache->stats().hits);
    }
}

} // namespace rsqp
