#include "telemetry/solve_telemetry.hpp"

#include <sstream>

namespace rsqp
{

const char*
toString(SolveRoute route)
{
    switch (route) {
    case SolveRoute::None: return "none";
    case SolveRoute::Parametric: return "parametric";
    case SolveRoute::CacheThaw: return "cache_thaw";
    case SolveRoute::FullCustomize: return "full_customize";
    }
    return "unknown";
}

void
SolveTelemetry::pushResidual(Index iteration, Real primal, Real dual)
{
    if (residualTail.size() >= kResidualTailCapacity)
        residualTail.erase(residualTail.begin());
    residualTail.push_back({iteration, primal, dual});
}

std::string
SolveTelemetry::toJson() const
{
    std::ostringstream os;
    os << "{\"backend\":\"" << backend
       << "\",\"restarts\":" << restarts
       << ",\"iterations\":" << iterations
       << ",\"kkt_solves\":" << kktSolves
       << ",\"pcg_iterations_total\":" << pcgIterationsTotal
       << ",\"pcg_iters_per_solve\":" << pcgItersPerSolve
       << ",\"isa_level\":\"" << isaLevel
       << "\",\"recovery_events\":" << recoveryEvents
       << ",\"route\":\"" << toString(route)
       << "\",\"queue_wait_seconds\":" << queueWaitSeconds
       << ",\"setup_seconds\":" << setupSeconds
       << ",\"solve_seconds\":" << solveSeconds
       << ",\"residual_tail\":[";
    for (std::size_t i = 0; i < residualTail.size(); ++i) {
        const ResidualSample& sample = residualTail[i];
        if (i)
            os << ',';
        os << "{\"iter\":" << sample.iteration
           << ",\"prim_res\":" << sample.primalResidual
           << ",\"dual_res\":" << sample.dualResidual << '}';
    }
    os << "]}";
    return os.str();
}

} // namespace rsqp
