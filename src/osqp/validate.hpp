/**
 * @file
 * Structured QP problem validation.
 *
 * `validateProblem` inspects a QpProblem and returns a
 * ValidationReport instead of throwing: malformed input — wrong
 * dimensions, broken CSC structure, NaN/Inf data, `l > u`, a
 * structurally non-upper-triangular or diagonally-indefinite `P` —
 * becomes a typed `SolveStatus::InvalidProblem` result with
 * per-category diagnostics rather than undefined behavior deep inside
 * the ADMM loop or the accelerator compiler.
 */

#ifndef RSQP_OSQP_VALIDATE_HPP
#define RSQP_OSQP_VALIDATE_HPP

#include <string>
#include <vector>

#include "common/types.hpp"

namespace rsqp
{

struct QpProblem;

/** Category of one validation failure. */
enum class ValidationCode
{
    DimensionMismatch,      ///< vector/matrix shapes disagree
    InvalidSparseStructure, ///< CSC invariants broken (ragged colPtr...)
    NotUpperTriangular,     ///< P stores entries below the diagonal
    NonFiniteData,          ///< NaN/Inf in matrix values or q/l/u
    InfeasibleBounds,       ///< l[i] > u[i] for some constraint
    IndefiniteDiagonal,     ///< diag(P) has a negative entry
    InvalidSetting,         ///< solver settings out of range
};

/** Printable name of a validation category. */
const char* toString(ValidationCode code);

/**
 * One failed check. Element-level scans report the first offending
 * index plus the total count in that category, not one issue per
 * element — a million-NaN problem yields one NonFiniteData issue.
 */
struct ValidationIssue
{
    ValidationCode code = ValidationCode::DimensionMismatch;
    std::string message;  ///< human-readable diagnostic
    Index index = -1;     ///< first offending element/column (-1: n/a)
    Count count = 1;      ///< total offenders in this category
};

/** Outcome of validating one QpProblem. */
struct ValidationReport
{
    std::vector<ValidationIssue> issues;

    bool ok() const { return issues.empty(); }

    /** True if any issue carries the given code. */
    bool has(ValidationCode code) const;

    /** Multi-line digest of all issues ("" when ok). */
    std::string describe() const;
};

/**
 * Run every check and collect all failures. Never throws, never
 * dereferences out-of-range indices: structural checks gate the
 * element scans that would otherwise read past broken arrays.
 */
ValidationReport validateProblem(const QpProblem& problem);

struct OsqpSettings;

/**
 * Validate algorithm settings (alpha in (0, 2), positive rho/sigma,
 * positive iteration caps, PDHG knob ranges, whichever engine will
 * run). Like validateProblem this never throws.
 */
ValidationReport validateSettings(const OsqpSettings& settings);

/**
 * The one setup check of every engine (OsqpSolver, PdhgSolver and the
 * device's RsqpSolver): the settings issues followed by the problem
 * issues, in one report. A failing report is logged once, and the
 * engine comes up inert: every solve() returns a typed InvalidProblem
 * result carrying the report, so every engine gives the same verdict.
 */
ValidationReport validateSetup(const QpProblem& problem,
                               const OsqpSettings& settings);

} // namespace rsqp

#endif // RSQP_OSQP_VALIDATE_HPP
