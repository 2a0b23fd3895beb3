#include "backends/backend_selector.hpp"

namespace rsqp
{

BackendFeatures
computeBackendFeatures(const QpProblem& problem)
{
    BackendFeatures f;
    f.n = problem.numVariables();
    f.m = problem.numConstraints();
    f.tallRatio = f.n > 0
        ? static_cast<Real>(f.m) / static_cast<Real>(f.n)
        : 0.0;

    if (f.m == 0)
        return f;

    // A loose row (both bounds at the kInf sentinel) has u - l = 2e30
    // and never counts as an equality.
    Index equalities = 0;
    for (Index i = 0; i < f.m; ++i) {
        const auto s = static_cast<std::size_t>(i);
        if (problem.u[s] - problem.l[s] < 1e-12)
            ++equalities;
    }
    f.equalityFraction =
        static_cast<Real>(equalities) / static_cast<Real>(f.m);
    return f;
}

BackendKind
chooseBackend(const BackendFeatures& features)
{
    // Small problems: setup costs dwarf any iteration-count gap, and
    // the direct KKT factor is unbeatable. Never leave ADMM.
    if (features.n + features.m < kSelectorSmallProblem)
        return BackendKind::Admm;

    // Equality-dominated: the per-constraint stiff-rho trick is the
    // decisive advantage, PDHG has no equivalent.
    if (features.equalityFraction >= kSelectorEqualityAdmm)
        return BackendKind::Admm;

    // Tall problems with a *mixed* constraint set: restarted PDHG's
    // territory. A single ADMM penalty must compromise between the
    // stiff equality rows and the loose inequality rows there; PDHG's
    // adaptive primal weight sidesteps the compromise. All-inequality
    // tall problems (svm) stay ADMM — one rho fits every row.
    if (features.tallRatio >= kSelectorTallRatioPdhg &&
        features.equalityFraction >= kSelectorEqualityPdhgMin)
        return BackendKind::Pdhg;

    return BackendKind::Admm;
}

BackendKind
chooseBackend(const QpProblem& problem)
{
    return chooseBackend(computeBackendFeatures(problem));
}

} // namespace rsqp
