/**
 * @file
 * Shared vocabulary of the perfbench program: the clock, per-request
 * records, metric maps, process-resource sampling and small statistics
 * helpers used by every workload.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rsqp_api.hpp"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One metric value with its unit, as printed in the result line. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/** Values-only variant of a base structure: the request's q, l, u. */
struct ValueVariant
{
    rsqp::Vector q, l, u;
};

/** A structure with its value variants (requests reuse the matrices). */
struct Structure
{
    rsqp::QpProblem base;
    std::vector<ValueVariant> variants;

    /** The full request problem for one variant. */
    rsqp::QpProblem request(std::size_t variant) const;
};

/**
 * Perturb q and the finite bounds of `base` by a relative amount
 * `eps`. Equality rows shift both sides together; inequality rows only
 * widen, so a feasible problem stays feasible.
 */
ValueVariant perturbValues(const rsqp::QpProblem& base, rsqp::Rng& rng,
                           double eps);

/** Everything recorded about one submitted request. */
struct Record
{
    Clock::time_point scheduled;  ///< due time (open loop) or submit
    Clock::time_point submitted;  ///< submitAsync entered
    Clock::time_point returned;   ///< submitAsync returned
    Clock::time_point completed;  ///< callback ran
    std::uint32_t structure = 0;
    std::uint32_t variant = 0;
    std::uint32_t client = 0;
    rsqp::AdmissionClass cls = rsqp::AdmissionClass::Interactive;

    rsqp::SolveStatus status = rsqp::SolveStatus::Unsolved;
    bool parametric = false;
    bool cacheHit = false;
    double queueWait = 0.0;  ///< program-reported
    double setup = 0.0;      ///< program-reported route work
    double solve = 0.0;      ///< program-reported solve wall time
    rsqp::Index iterations = 0;
    rsqp::Count pcgIterations = 0;
    rsqp::Vector x, y;  ///< kept for the answer checker
    bool certified = false;

    double latency() const { return secondsBetween(scheduled, completed); }
    bool rebuilt() const { return !parametric; }
};

/** getrusage(RUSAGE_SELF) snapshot. */
struct Usage
{
    double userSeconds = 0.0;
    double sysSeconds = 0.0;
    double minorFaults = 0.0;
    double contextSwitches = 0.0;  ///< voluntary + involuntary
    double maxRssMb = 0.0;

    static Usage now();
    Usage operator-(const Usage& before) const;
};

/** Nearest-rank percentile of an unsorted sample (q in [0, 1]). */
double percentile(std::vector<double> values, double q);

/** Median (nearest-rank p50) of an unsorted sample. */
inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
