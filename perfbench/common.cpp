#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench
{

rsqp::QpProblem
Structure::request(std::size_t variant) const
{
    rsqp::QpProblem problem = base;
    const ValueVariant& v = variants[variant];
    problem.q = v.q;
    problem.l = v.l;
    problem.u = v.u;
    return problem;
}

ValueVariant
perturbValues(const rsqp::QpProblem& base, rsqp::Rng& rng, double eps)
{
    ValueVariant v{base.q, base.l, base.u};
    for (double& q : v.q)
        q += eps * rng.normal() * (std::abs(q) + 1e-2);
    for (std::size_t i = 0; i < v.l.size(); ++i) {
        const bool lowFinite = v.l[i] > -rsqp::kInf;
        const bool highFinite = v.u[i] < rsqp::kInf;
        const double d =
            eps * rng.normal() *
            (std::abs(lowFinite ? v.l[i] : (highFinite ? v.u[i] : 0.0)) +
             1e-2);
        if (lowFinite && highFinite && v.l[i] == v.u[i]) {
            v.l[i] += d;
            v.u[i] += d;
        } else {
            if (lowFinite)
                v.l[i] -= std::abs(d);
            if (highFinite)
                v.u[i] += std::abs(d);
        }
    }
    return v;
}

Usage
Usage::now()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.userSeconds = static_cast<double>(ru.ru_utime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
    u.sysSeconds = static_cast<double>(ru.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
    u.minorFaults = static_cast<double>(ru.ru_minflt);
    u.contextSwitches =
        static_cast<double>(ru.ru_nvcsw) + static_cast<double>(ru.ru_nivcsw);
    u.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
    return u;
}

Usage
Usage::operator-(const Usage& before) const
{
    Usage d;
    d.userSeconds = userSeconds - before.userSeconds;
    d.sysSeconds = sysSeconds - before.sysSeconds;
    d.minorFaults = minorFaults - before.minorFaults;
    d.contextSwitches = contextSwitches - before.contextSwitches;
    d.maxRssMb = maxRssMb;  // a high-water mark, not a delta
    return d;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const auto index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

} // namespace perfbench
