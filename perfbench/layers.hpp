/**
 * @file
 * Direct calls into each layer's public functions, on the inputs of the
 * workload just run, timed with spans in the benchmark's own code. A
 * layer the workload's requests never reach reports 0 (host_pcg_large
 * never customizes; the Device engine never runs the host PCG).
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench
{

/** Per-call times (seconds unless noted) of direct layer calls. */
struct LayerTimes
{
    double fingerprint = 0.0;   ///< fingerprintStructure
    double customize = 0.0;     ///< customizeProblem
    double search = 0.0;        ///< encodeMatrix x3 + searchStructureSet
    double schedule = 0.0;      ///< scheduleString x4
    double pack = 0.0;          ///< packMatrix x4
    double cvb = 0.0;           ///< buildAccessRequirements+compressFirstFit x4
    double thaw = 0.0;          ///< thawCustomization
    double build = 0.0;         ///< RsqpSolver construction minus thaw
    double sim = 0.0;           ///< RsqpSolver::solve
    double simCyclesPerSecond = 0.0;
    double modeledDevice = 0.0;  ///< modeled: cycles / fmax
    double eta = 0.0;            ///< modeled match score
    double backendSolve = 0.0;   ///< QpBackend::solve (warm, parametric)
    double pcg = 0.0;            ///< pcgSolve on the reduced KKT system
    double pcgSelfPerIteration = 0.0;  ///< pcgSolve minus its applies
    double kktApply = 0.0;       ///< ReducedKktOperator::apply
    double spmvP = 0.0, spmvA = 0.0, spmvAt = 0.0;
    double kktApplyBytes = 0.0;  ///< computed compulsory traffic
    double streamBytesPerSecond = 0.0;  ///< measured triad bandwidth
};

/**
 * Run the direct calls for `workload`. `rebuilt` names the structures
 * that took a rebuild route in the traced window (device_churn samples
 * them); the other workloads use their own structure list.
 */
LayerTimes measureLayers(const Workload& workload,
                         const std::vector<std::uint32_t>& rebuilt,
                         SpanRecorder& tracer);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
