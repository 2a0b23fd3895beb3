#include "backends/qp_backend.hpp"

#include <utility>

#include "backends/backend_selector.hpp"
#include "backends/pdhg_solver.hpp"
#include "osqp/solver.hpp"

namespace rsqp
{

std::unique_ptr<QpBackend>
makeBackend(QpProblem problem, OsqpSettings settings)
{
    if (settings.firstOrder.method == BackendKind::Auto)
        settings.firstOrder.method = chooseBackend(problem);
    if (settings.firstOrder.method == BackendKind::Pdhg)
        return std::make_unique<PdhgSolver>(std::move(problem),
                                            std::move(settings));
    return std::make_unique<OsqpSolver>(std::move(problem),
                                        std::move(settings));
}

} // namespace rsqp
