#include "fault_injection.hpp"

#include <cstring>
#include <limits>

#include "common/logging.hpp"

namespace rsqp
{

namespace
{

/** splitmix64 finalizer — the repo's standard seeding mixer. */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

thread_local FaultInjector* tActiveInjector = nullptr;

} // namespace

FaultInjector::FaultInjector(FaultInjectionConfig config)
    : config_(config)
{
    RSQP_ASSERT(config_.ratePerWord >= 0.0 && config_.ratePerWord <= 1.0,
                "fault rate must be a probability, got ",
                config_.ratePerWord);
    RSQP_ASSERT(config_.nanFraction >= 0.0 && config_.nanFraction <= 1.0,
                "nanFraction must be a probability, got ",
                config_.nanFraction);
}

std::uint64_t
FaultInjector::wordHash(std::uint64_t stream, std::uint64_t index) const
{
    return mix64(mix64(mix64(config_.seed ^ epoch_) ^ stream) ^ index);
}

Real
FaultInjector::corruptWord(Real value, std::uint64_t stream,
                           std::uint64_t index)
{
    if (!config_.enabled || config_.ratePerWord <= 0.0)
        return value;
    const std::uint64_t h = wordHash(stream, index);
    // Top 53 bits as a uniform fraction in [0, 1).
    const Real draw =
        static_cast<Real>(h >> 11) * 0x1.0p-53;
    if (draw >= config_.ratePerWord)
        return value;

    ++faults_;
    // Low bits (independent of the acceptance draw) pick the flavor.
    if (static_cast<Real>(h & 0xff) <
        config_.nanFraction * 256.0) {
        ++nans_;
        return std::numeric_limits<Real>::quiet_NaN();
    }
    ++bitFlips_;
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(Real),
                  "bit-flip model assumes a 64-bit Real");
    std::memcpy(&bits, &value, sizeof(bits));
    bits ^= 1ULL << ((h >> 8) % 64);
    std::memcpy(&value, &bits, sizeof(bits));
    return value;
}

void
FaultInjector::corruptVector(Vector& v, std::uint64_t stream)
{
    if (!config_.enabled || config_.ratePerWord <= 0.0)
        return;
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = corruptWord(v[i], stream, static_cast<std::uint64_t>(i));
}

void
FaultInjector::resetCounters()
{
    faults_.store(0);
    bitFlips_.store(0);
    nans_.store(0);
}

FaultScope::FaultScope(FaultInjector* injector)
    : prev_(tActiveInjector)
{
    if (injector != nullptr && injector->enabled())
        tActiveInjector = injector;
}

FaultScope::~FaultScope()
{
    tActiveInjector = prev_;
}

FaultInjector*
activeFaultInjector()
{
    return tActiveInjector;
}

} // namespace rsqp
