/**
 * @file
 * The three workloads and the load generator that drives them through
 * the public SolverService API (openSession, submitAsync, callback).
 *
 *   host_pcg_large  closed loop, 1 client: Host engine with the
 *                   IndirectPcg KKT backend on large lasso/SVM
 *                   structures; every request is a value-only update.
 *   device_churn    closed loop, 2 clients: Device engine, default
 *                   SessionConfig, a pool of medium structures over all
 *                   six domains larger than the customization cache.
 *   mixed_classes   open loop at a fixed rate: bursty Realtime MPC
 *                   chains, Interactive lasso sweeps, Batch portfolio
 *                   bursts on tiny structures.
 *
 * All load comes from one generator thread (the caller's); the service
 * executes on the shared 3-worker thread pool. mixed_classes runs a
 * 3-core fleet; the closed loops use the default service settings.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <deque>
#include <functional>
#include <memory>

#include "common.hpp"
#include "spans.hpp"

namespace perfbench
{

/** Fleet cores: nproc (4) minus the generator thread. */
inline constexpr unsigned kFleetCores = 3;

/** What one request asks for. */
struct RequestSpec
{
    std::uint32_t session = 0;
    std::uint32_t structure = 0;
    std::uint32_t variant = 0;
    rsqp::AdmissionClass cls = rsqp::AdmissionClass::Realtime;
    double dueSeconds = 0.0;  ///< open loop: offset from window start
};

/** Per-client request stream of a closed loop (stateful, seeded). */
using ClosedSource = std::function<RequestSpec(unsigned client)>;

struct Workload
{
    std::string name;
    bool openLoop = false;
    std::vector<Structure> structures;
    rsqp::ServiceConfig service;
    std::vector<rsqp::SessionConfig> sessions;
    /** Solved synchronously after the sessions open (part of set-up). */
    std::vector<RequestSpec> warmup;

    /** Closed loop: client count and a stream factory per seed. */
    unsigned clients = 0;
    std::function<ClosedSource(std::uint64_t seed)> makeSource;

    /** Open loop: offered rate and the schedule over a window. */
    double ratePerSecond = 0.0;
    std::function<std::vector<RequestSpec>(double seconds, double rate,
                                           std::uint64_t seed)>
        schedule;

    /** Smallest sample a closed-loop window must complete. */
    std::size_t minRequests = 100;
};

/** Build a workload's inputs from the seed. Throws on an unknown name. */
Workload makeWorkload(const std::string& name, std::uint64_t seed);

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/** A constructed service with its sessions open and warm. */
struct LiveService
{
    std::unique_ptr<rsqp::SolverService> service;
    std::vector<rsqp::SessionId> sessions;
    double setupSeconds = 0.0;
    bool warmupSolved = true;
};

/** Construct the service, open the sessions, run the warm-up solves. */
LiveService setUp(const Workload& workload);

/** Everything one measured window produced. */
struct Window
{
    std::deque<Record> records;
    double wallSeconds = 0.0;   ///< window start to last completion
    double sendSeconds = 0.0;   ///< window start to last submission
    Usage usage;                ///< resources used over the window
    rsqp::ServiceStats before, after;
    std::vector<double> lagSeconds;  ///< generator lateness per send
    /** Open loop: requests in flight, sampled at every send. */
    std::vector<std::size_t> outstanding;
};

/**
 * Drive one measured window. Closed loops run until `seconds` have
 * passed and at least workload.minRequests have completed (capped at
 * twice `seconds`); open loops send their schedule and drain. With a
 * tracer, every request records its spans as it completes.
 */
Window runWindow(const Workload& workload, LiveService& live,
                 double seconds, std::uint64_t seed,
                 SpanRecorder* tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
