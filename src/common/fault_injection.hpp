/**
 * @file
 * Deterministic soft-error fault injection for the simulated
 * accelerator and the software PCG path.
 *
 * The model follows the FPGA soft-error literature: a streamed memory
 * word (HBM burst, MAC-tree output register) occasionally arrives with
 * a flipped bit or as a poisoned NaN. Injection decisions are a *pure
 * function* of (seed, epoch, stream tag, word index), so a run is
 * exactly reproducible at any host thread count: the parallel SpMV
 * lanes see the same faults no matter how chains are scheduled.
 *
 * The injector never aborts a computation — its whole purpose is to
 * exercise the detection and recovery machinery (problem validation,
 * divergence watchdog, PCG breakdown fallback) end to end.
 */

#ifndef RSQP_COMMON_FAULT_INJECTION_HPP
#define RSQP_COMMON_FAULT_INJECTION_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace rsqp
{

/** Knobs of the seeded soft-error model. */
struct FaultInjectionConfig
{
    /** Master switch; everything below is ignored when false. */
    bool enabled = false;
    /** Seed of the deterministic fault stream. */
    std::uint64_t seed = 0;
    /** Probability that one streamed word is corrupted. */
    Real ratePerWord = 1e-4;
    /** Fraction of faults injected as quiet NaN (rest are bit flips). */
    Real nanFraction = 0.25;
};

/**
 * Seeded fault injector. Cheap to query: one 64-bit hash per word.
 *
 * Every hook site runs on the solve's dispatch thread; the counters
 * are atomic so that a hook inside a parallel region would stay
 * well-defined too.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultInjectionConfig config);

    bool enabled() const { return config_.enabled; }
    const FaultInjectionConfig& config() const { return config_; }

    /**
     * Advance the fault epoch: the next run/solve sees a fresh,
     * still-deterministic fault pattern. Without this a retry would
     * deterministically replay the exact faults that broke the first
     * attempt and recovery could never succeed.
     */
    void advanceEpoch()
    {
        ++epoch_;
        nonce_.store(0);
    }
    std::uint64_t epoch() const { return epoch_; }

    /**
     * Fresh per-call stream offset for hook sites that re-execute with
     * the same word indices (e.g. one PCG solve per ADMM iteration).
     * Without it a single unlucky hash draw would deterministically
     * poison the same word of *every* re-execution and recovery could
     * never make progress. Resets with the epoch; calls arrive in a
     * deterministic order (the ADMM loop is sequential), so runs stay
     * reproducible.
     */
    std::uint64_t acquireNonce() { return nonce_.fetch_add(1); }

    /**
     * Possibly corrupt one streamed word. Pure in (seed, epoch,
     * stream, index) apart from the statistics counters.
     */
    Real corruptWord(Real value, std::uint64_t stream,
                     std::uint64_t index);

    /** Corrupt a whole vector stream (index = element position). */
    void corruptVector(Vector& v, std::uint64_t stream);

    // --- Statistics ----------------------------------------------------

    Count faultsInjected() const { return faults_.load(); }
    Count bitFlipsInjected() const { return bitFlips_.load(); }
    Count nansInjected() const { return nans_.load(); }
    void resetCounters();

  private:
    std::uint64_t wordHash(std::uint64_t stream,
                           std::uint64_t index) const;

    FaultInjectionConfig config_;
    std::uint64_t epoch_ = 0;
    std::atomic<std::uint64_t> nonce_{0};
    std::atomic<Count> faults_{0};
    std::atomic<Count> bitFlips_{0};
    std::atomic<Count> nans_{0};
};

/**
 * RAII installation of a thread-local "active" injector, used to reach
 * hook points (the software PCG operator stream) without widening
 * every call signature. Passing nullptr is a no-op scope.
 */
class FaultScope
{
  public:
    explicit FaultScope(FaultInjector* injector);
    ~FaultScope();

    FaultScope(const FaultScope&) = delete;
    FaultScope& operator=(const FaultScope&) = delete;

  private:
    FaultInjector* prev_;
};

/** The calling thread's active injector (nullptr if none). */
FaultInjector* activeFaultInjector();

/**
 * Stream tags naming each injection site. Distinct tags decorrelate
 * the fault patterns of different hardware structures under one seed;
 * hook sites may add a per-call offset (e.g. the PCG iteration) so a
 * word position is not deterministically faulty across calls.
 */
namespace fault_streams
{
constexpr std::uint64_t kHbmLoad = 0x48424d4cULL;    ///< 'HBML'
constexpr std::uint64_t kHbmStore = 0x48424d53ULL;   ///< 'HBMS'
constexpr std::uint64_t kSpmvValues = 0x53505656ULL; ///< 'SPVV' matrix stream
constexpr std::uint64_t kMacOutput = 0x4d414343ULL;  ///< 'MACC' accumulation
constexpr std::uint64_t kPcgOperator = 0x50434f50ULL; ///< 'PCOP' software K·p
constexpr std::uint64_t kPdhgOperator = 0x50444f50ULL; ///< 'PDOP' PDHG A·x̄
} // namespace fault_streams

} // namespace rsqp

#endif // RSQP_COMMON_FAULT_INJECTION_HPP
