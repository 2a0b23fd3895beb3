/**
 * @file
 * The end-to-end RSQP solver: OSQP accelerated by a problem-specific
 * simulated FPGA architecture.
 *
 * Construction mirrors the paper's deployment flow: scale the problem,
 * run the customization pipeline (or pick the generic baseline),
 * "generate the hardware" (instantiate the cycle-level machine), lower
 * OSQP onto the ISA, and load the packed matrices into HBM. solve()
 * then runs the program, reads back the scaled solution, unscales it,
 * and converts the cycle count into modeled device time through the
 * fmax model; the host wall clock of the run is timed separately.
 * Parametric re-solves (new q / bounds / warm starts) reuse the
 * generated architecture — the amortization story of the paper.
 */

#ifndef RSQP_CORE_RSQP_SOLVER_HPP
#define RSQP_CORE_RSQP_SOLVER_HPP

#include <memory>
#include <vector>

#include "arch/machine.hpp"
#include "arch/osqp_program.hpp"
#include "backends/qp_backend.hpp"
#include "core/customization.hpp"
#include "osqp/scaling.hpp"
#include "osqp/settings.hpp"
#include "osqp/status.hpp"

namespace rsqp
{

/**
 * Former name of the result type. Only perfbench/layers.cpp still
 * spells it, and the benchmark's sources change only together with
 * the benchmark; everything else spells OsqpResult.
 */
using RsqpResult = OsqpResult;

/**
 * OSQP on the simulated RSQP accelerator: the device engine of the
 * QpBackend interface. It runs the ADMM recurrence, so kind() is
 * BackendKind::Admm; its results also carry the run's cycle counts,
 * modeled device seconds and match score.
 */
class RsqpSolver final : public QpBackend
{
  public:
    /**
     * Set up the accelerated solver.
     *
     * @param problem The QP (unscaled).
     * @param settings OSQP settings (maxIter is rounded up to a
     *        multiple of checkInterval for the device loop).
     * @param custom Customization pipeline settings (width, E_p/E_c
     *        optimizations on/off).
     */
    RsqpSolver(QpProblem problem, OsqpSettings settings,
               CustomizeSettings custom);

    /**
     * Set up the accelerated solver from a frozen customization
     * artifact (see core/customization.hpp): when the artifact is
     * non-null and structurally compatible with the problem, the whole
     * E_p/E_c pipeline is skipped and only the value-dependent packing
     * runs — the cache-hit fast path of the service layer. An
     * incompatible or null artifact falls back to the full pipeline.
     */
    RsqpSolver(QpProblem problem, OsqpSettings settings,
               CustomizeSettings custom,
               std::shared_ptr<const CustomizationArtifact> artifact);

    /** Run the accelerator program and return the solution. */
    OsqpResult solve() override;

    /**
     * Warm start the next solve() (unscaled guesses). A size mismatch
     * is a recoverable client error: the guess is ignored with a
     * warning and false is returned (the solve starts from the last
     * accepted guess, or cold), in the same spirit as the non-throwing
     * InvalidProblem path.
     */
    bool warmStart(const Vector& x, const Vector& y) override;

    /** True if setup reused a frozen artifact (skipped the pipeline). */
    bool customizationReused() const { return customizationReused_; }

    /** Replace q; the architecture and program are reused. */
    void updateLinearCost(const Vector& q) override;

    /** Replace the bounds; the architecture and program are reused. */
    void updateBounds(const Vector& l, const Vector& u) override;

    /**
     * Replace the numeric values of P and/or A keeping the sparsity
     * structure (pass empty vectors to keep current values). Values
     * follow the original (unscaled) CSC order. The schedules, CVB
     * plans and program are all reused; only the packed HBM streams
     * are rewritten — the paper's same-structure amortization.
     */
    void updateMatrixValues(const std::vector<Real>& p_values,
                            const std::vector<Real>& a_values) override;

    /**
     * Stored and never read: the simulated run is not interruptible,
     * so the service enforces Device deadlines at dispatch.
     */
    void setTimeLimit(Real seconds) override
    {
        settings_.timeLimit = seconds;
    }

    /**
     * Settings and problem diagnostics from setup. When not ok() the
     * solver is inert: solve() returns InvalidProblem, mutators are
     * no-ops, and machine()/program() must not be called.
     */
    const ValidationReport& validation() const override
    {
        return validation_;
    }

    BackendKind kind() const override { return BackendKind::Admm; }

    const ProblemCustomization& customization() const { return custom_; }
    const ArchConfig& config() const { return custom_.config; }
    const Machine& machine() const { return *machine_; }
    const Program& program() const { return prog_.program; }

  private:
    ScaledQp qp_;  ///< unscaled and scaled problem (see ScaledQp)
    ValidationReport validation_;  ///< setup diagnostics
    OsqpSettings settings_;
    ProblemCustomization custom_;
    bool customizationReused_ = false;
    std::unique_ptr<Machine> machine_;
    OsqpMatrixIds mats_;
    OsqpDeviceProgram prog_;
};

} // namespace rsqp

#endif // RSQP_CORE_RSQP_SOLVER_HPP
