#include "validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "common/logging.hpp"
#include "osqp/problem.hpp"
#include "osqp/settings.hpp"

namespace rsqp
{

namespace
{

void
addIssue(ValidationReport& report, ValidationCode code,
         std::string message, Index index = -1, Count count = 1)
{
    ValidationIssue issue;
    issue.code = code;
    issue.message = std::move(message);
    issue.index = index;
    issue.count = count;
    report.issues.push_back(std::move(issue));
}

/** NaN or IEEE infinity (the kInf = 1e30 sentinel is finite). */
bool
isNonFinite(Real v)
{
    return !std::isfinite(v);
}

/** One NonFiniteData issue per array: first offender + total count. */
void
scanNonFinite(ValidationReport& report, const Vector& values,
              const char* what)
{
    Index first = -1;
    Count bad = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (isNonFinite(values[i])) {
            if (bad == 0)
                first = static_cast<Index>(i);
            ++bad;
        }
    }
    if (bad > 0) {
        std::ostringstream msg;
        msg << what << " has " << bad << " non-finite entr"
            << (bad == 1 ? "y" : "ies") << " (first at index " << first
            << ")";
        addIssue(report, ValidationCode::NonFiniteData, msg.str(), first,
                 bad);
    }
}

/**
 * Range checks of the PDHG engine knobs. They run for every engine,
 * so a bad knob gives the same InvalidProblem verdict whichever
 * engine BackendKind::Auto picks.
 */
void
validatePdhgKnobs(const PdhgConfig& pdhg, ValidationReport& report)
{
    const auto add = [&report](std::string message) {
        addIssue(report, ValidationCode::InvalidSetting,
                 std::move(message));
    };
    if (pdhg.restartInterval < 1)
        add("pdhg.restartInterval must be >= 1, got " +
            std::to_string(pdhg.restartInterval));
    if (!(pdhg.restartBeta > 0.0 && pdhg.restartBeta < 1.0))
        add("pdhg.restartBeta must be in (0, 1), got " +
            std::to_string(pdhg.restartBeta));
    if (pdhg.primalWeight < 0.0)
        add("pdhg.primalWeight must be >= 0 (0 = automatic), got " +
            std::to_string(pdhg.primalWeight));
    if (!(pdhg.stepBalanceSmoothing >= 0.0 &&
          pdhg.stepBalanceSmoothing <= 1.0))
        add("pdhg.stepBalanceSmoothing must be in [0, 1], got " +
            std::to_string(pdhg.stepBalanceSmoothing));
    if (!(pdhg.primalWeightMax > 1.0))
        add("pdhg.primalWeightMax must be > 1, got " +
            std::to_string(pdhg.primalWeightMax));
    if (pdhg.warmupChecks < 0)
        add("pdhg.warmupChecks must be >= 0, got " +
            std::to_string(pdhg.warmupChecks));
    if (pdhg.powerIterations < 1)
        add("pdhg.powerIterations must be >= 1, got " +
            std::to_string(pdhg.powerIterations));
    if (!(pdhg.stepSafety >= 1.0))
        add("pdhg.stepSafety must be >= 1, got " +
            std::to_string(pdhg.stepSafety));
}

} // namespace

const char*
toString(ValidationCode code)
{
    switch (code) {
    case ValidationCode::DimensionMismatch:
        return "dimension-mismatch";
    case ValidationCode::InvalidSparseStructure:
        return "invalid-sparse-structure";
    case ValidationCode::NotUpperTriangular:
        return "not-upper-triangular";
    case ValidationCode::NonFiniteData:
        return "non-finite-data";
    case ValidationCode::InfeasibleBounds:
        return "infeasible-bounds";
    case ValidationCode::IndefiniteDiagonal:
        return "indefinite-diagonal";
    case ValidationCode::InvalidSetting:
        return "invalid-setting";
    }
    return "unknown";
}

bool
ValidationReport::has(ValidationCode code) const
{
    for (const ValidationIssue& issue : issues) {
        if (issue.code == code)
            return true;
    }
    return false;
}

std::string
ValidationReport::describe() const
{
    std::string out;
    for (const ValidationIssue& issue : issues) {
        if (!out.empty())
            out += '\n';
        out += '[';
        out += toString(issue.code);
        out += "] ";
        out += issue.message;
    }
    return out;
}

ValidationReport
validateProblem(const QpProblem& problem)
{
    ValidationReport report;

    // Structural invariants come first: they gate every element scan
    // that would otherwise index through broken colPtr/rowIdx arrays.
    const bool p_valid = problem.pUpper.isValid();
    const bool a_valid = problem.a.isValid();
    if (!p_valid)
        addIssue(report, ValidationCode::InvalidSparseStructure,
                 "P: broken CSC structure (column pointers not "
                 "monotone from 0 to nnz, or row indices unsorted / "
                 "out of range)");
    if (!a_valid)
        addIssue(report, ValidationCode::InvalidSparseStructure,
                 "A: broken CSC structure (column pointers not "
                 "monotone from 0 to nnz, or row indices unsorted / "
                 "out of range)");

    const Index n = problem.pUpper.cols();
    const Index m = problem.a.rows();

    if (problem.pUpper.rows() != n) {
        std::ostringstream msg;
        msg << "P must be square, got " << problem.pUpper.rows() << "x"
            << n;
        addIssue(report, ValidationCode::DimensionMismatch, msg.str());
    }
    if (static_cast<Index>(problem.q.size()) != n) {
        std::ostringstream msg;
        msg << "q has " << problem.q.size() << " entries, expected n = "
            << n;
        addIssue(report, ValidationCode::DimensionMismatch, msg.str());
    }
    if (problem.a.cols() != n) {
        std::ostringstream msg;
        msg << "A has " << problem.a.cols() << " columns, expected n = "
            << n;
        addIssue(report, ValidationCode::DimensionMismatch, msg.str());
    }
    if (static_cast<Index>(problem.l.size()) != m) {
        std::ostringstream msg;
        msg << "l has " << problem.l.size() << " entries, expected m = "
            << m;
        addIssue(report, ValidationCode::DimensionMismatch, msg.str());
    }
    if (static_cast<Index>(problem.u.size()) != m) {
        std::ostringstream msg;
        msg << "u has " << problem.u.size() << " entries, expected m = "
            << m;
        addIssue(report, ValidationCode::DimensionMismatch, msg.str());
    }

    scanNonFinite(report, problem.q, "q");
    scanNonFinite(report, problem.l, "l");
    scanNonFinite(report, problem.u, "u");
    if (p_valid)
        scanNonFinite(report, problem.pUpper.values(), "P values");
    if (a_valid)
        scanNonFinite(report, problem.a.values(), "A values");

    // l <= u per constraint. NaN compares false, so poisoned bounds do
    // not double-report here — they already landed in NonFiniteData.
    {
        const std::size_t pairs =
            std::min(problem.l.size(), problem.u.size());
        Index first = -1;
        Count bad = 0;
        for (std::size_t i = 0; i < pairs; ++i) {
            if (problem.l[i] > problem.u[i]) {
                if (bad == 0)
                    first = static_cast<Index>(i);
                ++bad;
            }
        }
        if (bad > 0) {
            std::ostringstream msg;
            msg << bad << " constraint" << (bad == 1 ? "" : "s")
                << " with l > u (first at row " << first << ")";
            addIssue(report, ValidationCode::InfeasibleBounds, msg.str(),
                     first, bad);
        }
    }

    if (p_valid) {
        // P is stored as its upper triangle; anything strictly below
        // the diagonal means the symmetric-storage convention was
        // violated and spmvSymUpper would double-count it.
        const std::vector<Index>& col_ptr = problem.pUpper.colPtr();
        const std::vector<Index>& row_idx = problem.pUpper.rowIdx();
        const std::vector<Real>& values = problem.pUpper.values();
        Index first_lower = -1;
        Count lower = 0;
        Index first_neg = -1;
        Count neg = 0;
        for (Index c = 0; c < problem.pUpper.cols(); ++c) {
            for (Index p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
                if (row_idx[p] > c) {
                    if (lower == 0)
                        first_lower = c;
                    ++lower;
                } else if (row_idx[p] == c && values[p] < 0.0) {
                    if (neg == 0)
                        first_neg = c;
                    ++neg;
                }
            }
        }
        if (lower > 0) {
            std::ostringstream msg;
            msg << "P has " << lower << " entr" << (lower == 1 ? "y" : "ies")
                << " below the diagonal (first in column " << first_lower
                << "); upper-triangle storage required";
            addIssue(report, ValidationCode::NotUpperTriangular, msg.str(),
                     first_lower, lower);
        }
        if (neg > 0) {
            std::ostringstream msg;
            msg << "diag(P) has " << neg << " negative entr"
                << (neg == 1 ? "y" : "ies") << " (first at index "
                << first_neg << "); P cannot be positive semidefinite";
            addIssue(report, ValidationCode::IndefiniteDiagonal, msg.str(),
                     first_neg, neg);
        }
    }

    return report;
}

ValidationReport
validateSettings(const OsqpSettings& settings)
{
    ValidationReport report;
    if (!(settings.alpha > 0.0 && settings.alpha < 2.0)) {
        std::ostringstream msg;
        msg << "alpha must be in (0, 2), got " << settings.alpha;
        addIssue(report, ValidationCode::InvalidSetting, msg.str());
    }
    if (!(settings.adaptiveRhoTolerance > 1.0)) {
        // A ratio threshold <= 1 makes every residual-balance check
        // fire, so rho would be refactored on every adaptation window.
        std::ostringstream msg;
        msg << "adaptiveRhoTolerance must be > 1, got "
            << settings.adaptiveRhoTolerance;
        addIssue(report, ValidationCode::InvalidSetting, msg.str());
    }
    if (!(settings.rho > 0.0)) {
        std::ostringstream msg;
        msg << "rho must be positive, got " << settings.rho;
        addIssue(report, ValidationCode::InvalidSetting, msg.str());
    }
    if (!(settings.sigma > 0.0)) {
        std::ostringstream msg;
        msg << "sigma must be positive, got " << settings.sigma;
        addIssue(report, ValidationCode::InvalidSetting, msg.str());
    }
    if (settings.maxIter < 1) {
        std::ostringstream msg;
        msg << "maxIter must be >= 1, got " << settings.maxIter;
        addIssue(report, ValidationCode::InvalidSetting, msg.str());
    }
    if (settings.checkInterval < 1) {
        std::ostringstream msg;
        msg << "checkInterval must be >= 1, got "
            << settings.checkInterval;
        addIssue(report, ValidationCode::InvalidSetting, msg.str());
    }
    validatePdhgKnobs(settings.firstOrder.pdhg, report);
    return report;
}

ValidationReport
validateSetup(const QpProblem& problem, const OsqpSettings& settings)
{
    ValidationReport report = validateSettings(settings);
    ValidationReport problem_report = validateProblem(problem);
    report.issues.insert(report.issues.end(),
                         problem_report.issues.begin(),
                         problem_report.issues.end());
    if (!report.ok())
        RSQP_WARN("problem '", problem.name, "' failed validation:\n",
                  report.describe());
    return report;
}

} // namespace rsqp
