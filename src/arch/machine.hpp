/**
 * @file
 * Cycle-level functional simulator of the RSQP processing architecture
 * (paper Fig. 1).
 *
 * The machine executes programs of the Table 1 ISA strictly in order,
 * producing both the numeric results (the datapath is simulated
 * functionally, optionally in FP32 like the physical MAC trees) and a
 * cycle count per the paper's cost model:
 *
 *  - vector ops / data transfers: ceil(L / C) cycles + pipeline fill,
 *  - SpMV: one cycle per non-zero pack, i.e. (nnz + E_p) / C,
 *  - vector duplication: max(depth, L / C) cycles — E_c * L / C with
 *    full duplication, L / C when the CVB is perfectly compressed.
 *
 * This is the substitution for the physical U50 FPGA: the knobs the
 * paper tunes (C, S, CVB compression) enter the cycle count through
 * exactly the terms the paper attributes to them.
 */

#ifndef RSQP_ARCH_MACHINE_HPP
#define RSQP_ARCH_MACHINE_HPP

#include <array>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "arch/isa.hpp"
#include "arch/machine_stats.hpp"
#include "common/types.hpp"
#include "cvb/cvb.hpp"
#include "encoding/packing.hpp"

namespace rsqp
{

/** The simulated accelerator. */
class Machine
{
  public:
    explicit Machine(ArchConfig config);

    const ArchConfig& config() const { return config_; }

    // --- Host-side resource setup -------------------------------------

    /** Allocate a zero-filled vector buffer of fixed length; returns
     *  its id. */
    Index addVector(Index length, const std::string& name = "");

    /**
     * Load a packed matrix and the CVB plan of its multiplicand
     * vector; returns the matrix id (also its CVB id).
     */
    Index addMatrix(const PackedMatrix& packed, CvbPlan plan,
                    const std::string& name = "");

    /**
     * Replace the numeric values of a loaded matrix with a re-packed
     * stream of identical structure (same schedule, same column
     * indices) — the "new parameters, same sparsity" reuse model.
     */
    void updateMatrixValues(Index mat_id, const PackedMatrix& packed);

    /** Allocate an HBM region holding a host-provided vector. */
    Index addHbmVector(Vector data, const std::string& name = "");

    /** Overwrite an HBM region (new problem parameters). */
    void setHbmVector(Index id, Vector data);

    /**
     * Zero a vector buffer from the host between runs. Like
     * setHbmVector it costs no modeled cycles; buffers otherwise keep
     * their contents from one run() to the next.
     */
    void zeroVector(Index vec_id);

    /** Number of scalar registers available. */
    static constexpr Index kNumScalars = 96;

    // --- Execution -----------------------------------------------------

    /**
     * Execute the program from pc 0 until Halt.
     *
     * @param program The instruction ROM contents.
     * @param max_instructions Runaway guard; panics when exceeded.
     */
    void run(const Program& program, Count max_instructions = 500000000);

    // --- Result readback -----------------------------------------------

    const Vector& vectorValue(Index vec_id) const;
    Real scalarValue(Index scalar_id) const;
    const Vector& hbmValue(Index hbm_id) const;

    const MachineStats& stats() const { return stats_; }
    void resetStats() { stats_ = MachineStats{}; }

    // --- Profiling -------------------------------------------------------

    /** Collect per-pc execution and cycle counts during run(). */
    void enableProfiling(bool enabled) { profiling_ = enabled; }

    /** Execution count per program counter (empty unless profiling). */
    const std::vector<Count>& pcExecutionCounts() const
    {
        return pcCounts_;
    }

    /** Cycles attributed per program counter. */
    const std::vector<Count>& pcCycles() const { return pcCycleCounts_; }

    /**
     * Render the top-k hottest instructions of the last profiled run
     * (pc, mnemonic, comment, executions, cycles, share).
     */
    std::string profileReport(const Program& program,
                              std::size_t top_k = 10) const;

  private:
    /** Matrix compiled for fast functional evaluation. */
    struct CompiledMatrix
    {
        Index rows = 0;
        Index cols = 0;
        Count packCount = 0;
        CvbPlan plan;
        /** One MAC tree output, pointing into the flat arrays. */
        struct Segment
        {
            Index row;
            Index begin;
            Index end;
            bool accumulate;
            bool emit;
        };
        std::vector<Real> flatValues;  ///< non-padded values, stream order
        IndexVector flatCols;          ///< matching column indices
        std::vector<Segment> segments;
        /**
         * Indices of segments that start a fresh accumulation chain
         * (accumulate == false). A '$'-chunk partial-sum carry never
         * crosses such a boundary, and each chain emits into its own
         * disjoint set of destination rows, so whole chains are the
         * unit of parallelism of the simulated lane streams: any
         * grouping of chains onto threads reproduces the serial
         * result bitwise.
         */
        IndexVector chainStarts;
        Count storedCopies = 0;  ///< cached plan.storedCopies()
        /** CVB contents (functional): the duplicated vector. */
        Vector cvbVector;
        bool cvbLoaded = false;
        std::string name;
    };

    Count vectorOpCycles(Index length) const;
    void charge(InstrClass cls, Count cycles);
    void execSpmv(const Instruction& instr);

    bool profiling_ = false;
    std::vector<Count> pcCounts_;
    std::vector<Count> pcCycleCounts_;
    std::size_t lastPc_ = 0;  ///< pc whose cost charge() attributes

    ArchConfig config_;
    std::vector<Vector> vectors_;
    std::vector<std::string> vectorNames_;
    std::vector<CompiledMatrix> matrices_;
    std::vector<Vector> hbm_;
    std::array<Real, kNumScalars> scalars_{};
    MachineStats stats_;
};

} // namespace rsqp

#endif // RSQP_ARCH_MACHINE_HPP
