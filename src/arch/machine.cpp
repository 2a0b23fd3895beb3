#include "machine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "linalg/vector_ops.hpp"

namespace rsqp
{

Machine::Machine(ArchConfig config)
    : config_(std::move(config))
{
    RSQP_ASSERT(isPow2(config_.c) && config_.c <= 64,
                "datapath width must be a power of two <= 64");
    RSQP_ASSERT(config_.structures.c() == config_.c,
                "structure set width must match the datapath");
    scalars_.fill(0.0);
}

Index
Machine::addVector(Index length, const std::string& name)
{
    RSQP_ASSERT(length >= 0, "negative vector length");
    vectors_.emplace_back(static_cast<std::size_t>(length), 0.0);
    vectorNames_.push_back(name);
    return static_cast<Index>(vectors_.size()) - 1;
}

Index
Machine::addMatrix(const PackedMatrix& packed, CvbPlan plan,
                   const std::string& name)
{
    RSQP_ASSERT(packed.c == config_.c, "packed matrix width mismatch");
    RSQP_ASSERT(plan.c == config_.c && plan.length == packed.cols,
                "CVB plan does not match the matrix");

    CompiledMatrix compiled;
    compiled.rows = packed.rows;
    compiled.cols = packed.cols;
    compiled.packCount = packed.packCount();
    compiled.plan = std::move(plan);
    compiled.storedCopies = compiled.plan.storedCopies();
    compiled.name = name;

    // Flatten the packed stream: keep only non-padded lanes, but keep
    // the exact segment structure so '$' accumulation chains survive.
    compiled.flatValues.reserve(static_cast<std::size_t>(packed.nnz));
    compiled.flatCols.reserve(static_cast<std::size_t>(packed.nnz));
    for (const LanePack& pack : packed.packs) {
        for (const PackSegment& seg : pack.segments) {
            CompiledMatrix::Segment flat_seg;
            flat_seg.row = seg.row;
            flat_seg.accumulate = seg.accumulate;
            flat_seg.emit = seg.emit;
            flat_seg.begin = static_cast<Index>(compiled.flatValues.size());
            for (Index k = seg.laneBegin; k < seg.laneEnd; ++k) {
                const Index col =
                    pack.colIdx[static_cast<std::size_t>(k)];
                if (col < 0)
                    continue;
                compiled.flatValues.push_back(
                    pack.values[static_cast<std::size_t>(k)]);
                compiled.flatCols.push_back(col);
            }
            flat_seg.end = static_cast<Index>(compiled.flatValues.size());
            compiled.segments.push_back(flat_seg);
        }
    }

    // Precompute the independent accumulation chains: a carry never
    // crosses a segment with accumulate == false, so those segments
    // are the legal split points of the parallel SpMV execution.
    for (std::size_t s = 0; s < compiled.segments.size(); ++s)
        if (!compiled.segments[s].accumulate)
            compiled.chainStarts.push_back(static_cast<Index>(s));
    // Chain 0 must start at segment 0 even if the stream opens with an
    // accumulate segment (a carry into nothing, executed with carry=0
    // by the serial walk) — otherwise execSpmv would skip the leading
    // segments entirely.
    if (!compiled.segments.empty() &&
        (compiled.chainStarts.empty() || compiled.chainStarts.front() != 0))
        compiled.chainStarts.insert(compiled.chainStarts.begin(), 0);

    matrices_.push_back(std::move(compiled));
    return static_cast<Index>(matrices_.size()) - 1;
}

void
Machine::updateMatrixValues(Index mat_id, const PackedMatrix& packed)
{
    RSQP_ASSERT(mat_id >= 0 &&
                mat_id < static_cast<Index>(matrices_.size()),
                "bad matrix id");
    CompiledMatrix& matrix =
        matrices_[static_cast<std::size_t>(mat_id)];
    RSQP_ASSERT(packed.c == config_.c &&
                packed.rows == matrix.rows &&
                packed.cols == matrix.cols &&
                packed.packCount() == matrix.packCount,
                "updateMatrixValues: structure mismatch for '",
                matrix.name, "'");

    std::size_t flat = 0;
    for (const LanePack& pack : packed.packs) {
        for (const PackSegment& seg : pack.segments) {
            for (Index k = seg.laneBegin; k < seg.laneEnd; ++k) {
                const Index col =
                    pack.colIdx[static_cast<std::size_t>(k)];
                if (col < 0)
                    continue;
                RSQP_ASSERT(flat < matrix.flatValues.size() &&
                            matrix.flatCols[flat] == col,
                            "updateMatrixValues: column pattern "
                            "mismatch for '", matrix.name, "'");
                matrix.flatValues[flat] =
                    pack.values[static_cast<std::size_t>(k)];
                ++flat;
            }
        }
    }
    RSQP_ASSERT(flat == matrix.flatValues.size(),
                "updateMatrixValues: value count mismatch");
}

Index
Machine::addHbmVector(Vector data, const std::string& name)
{
    (void)name;
    hbm_.push_back(std::move(data));
    return static_cast<Index>(hbm_.size()) - 1;
}

void
Machine::setHbmVector(Index id, Vector data)
{
    RSQP_ASSERT(id >= 0 && id < static_cast<Index>(hbm_.size()),
                "bad HBM region id");
    hbm_[static_cast<std::size_t>(id)] = std::move(data);
}

const Vector&
Machine::vectorValue(Index vec_id) const
{
    RSQP_ASSERT(vec_id >= 0 &&
                vec_id < static_cast<Index>(vectors_.size()),
                "bad vector id");
    return vectors_[static_cast<std::size_t>(vec_id)];
}

Real
Machine::scalarValue(Index scalar_id) const
{
    RSQP_ASSERT(scalar_id >= 0 && scalar_id < kNumScalars,
                "bad scalar id");
    return scalars_[static_cast<std::size_t>(scalar_id)];
}

const Vector&
Machine::hbmValue(Index hbm_id) const
{
    RSQP_ASSERT(hbm_id >= 0 && hbm_id < static_cast<Index>(hbm_.size()),
                "bad HBM region id");
    return hbm_[static_cast<std::size_t>(hbm_id)];
}

Count
Machine::vectorOpCycles(Index length) const
{
    return (static_cast<Count>(length) + config_.c - 1) / config_.c;
}

void
Machine::charge(InstrClass cls, Count cycles)
{
    stats_.totalCycles += cycles + config_.timings.decodeOverhead;
    stats_.classCycles[static_cast<std::size_t>(cls)] +=
        cycles + config_.timings.decodeOverhead;
    ++stats_.classCounts[static_cast<std::size_t>(cls)];
    ++stats_.instructions;
    if (profiling_ && lastPc_ < pcCycleCounts_.size())
        pcCycleCounts_[lastPc_] +=
            cycles + config_.timings.decodeOverhead;
}

void
Machine::execSpmv(const Instruction& instr)
{
    RSQP_ASSERT(instr.a >= 0 &&
                instr.a < static_cast<Index>(matrices_.size()),
                "spmv: bad matrix id");
    CompiledMatrix& matrix = matrices_[static_cast<std::size_t>(instr.a)];
    RSQP_ASSERT(matrix.cvbLoaded,
                "spmv on matrix '", matrix.name,
                "' before any VecDup into its CVB");
    Vector& dst = vectors_[static_cast<std::size_t>(instr.dst)];
    RSQP_ASSERT(static_cast<Index>(dst.size()) == matrix.rows,
                "spmv: destination length mismatch");
    const Vector& x = matrix.cvbVector;

    const Index num_chains =
        static_cast<Index>(matrix.chainStarts.size());
    const auto num_segments = static_cast<Index>(matrix.segments.size());

    const std::vector<Real>& values = matrix.flatValues;

    // Execute the accumulation chains [cb, ce) in stream order. Chains
    // are mutually independent (no carry crosses a chain start, each
    // chain emits a disjoint set of rows), so any grouping of chains
    // onto threads is bitwise-identical to the serial stream.
    std::function<void(Index, Index)> run_chains = [&](Index cb,
                                                       Index ce) {
        const Index seg_begin =
            matrix.chainStarts[static_cast<std::size_t>(cb)];
        const Index seg_end = ce < num_chains
            ? matrix.chainStarts[static_cast<std::size_t>(ce)]
            : num_segments;
        if (config_.fp32Datapath) {
            // FP32 MAC trees: accumulate in float like the silicon.
            float carry = 0.0f;
            for (Index si = seg_begin; si < seg_end; ++si) {
                const auto& seg =
                    matrix.segments[static_cast<std::size_t>(si)];
                float acc = seg.accumulate ? carry : 0.0f;
                for (Index p = seg.begin; p < seg.end; ++p)
                    acc += static_cast<float>(
                               values[static_cast<std::size_t>(p)]) *
                        static_cast<float>(x[static_cast<std::size_t>(
                            matrix.flatCols[
                                static_cast<std::size_t>(p)])]);
                if (seg.emit && seg.row >= 0)
                    dst[static_cast<std::size_t>(seg.row)] = acc;
                else
                    carry = acc;
            }
        } else {
            Real carry = 0.0;
            for (Index si = seg_begin; si < seg_end; ++si) {
                const auto& seg =
                    matrix.segments[static_cast<std::size_t>(si)];
                Real acc = seg.accumulate ? carry : 0.0;
                for (Index p = seg.begin; p < seg.end; ++p)
                    acc += values[static_cast<std::size_t>(p)] *
                        x[static_cast<std::size_t>(
                            matrix.flatCols[
                                static_cast<std::size_t>(p)])];
                if (seg.emit && seg.row >= 0)
                    dst[static_cast<std::size_t>(seg.row)] = acc;
                else
                    carry = acc;
            }
        }
    };

    // Size before thread count: a tiny matrix never asks for a width.
    Index width = 1;
    if (num_chains > 1 && !ThreadPool::insideWorker() &&
        static_cast<Index>(matrix.flatValues.size()) >= kParallelThreshold)
        width = effectiveNumThreads();
    if (width > 1) {
        const Index grain =
            std::max<Index>(1, num_chains / (width * 4));
        ThreadPool::global().parallelFor(0, num_chains, grain,
                                         run_chains);
    } else if (num_chains > 0) {
        run_chains(0, num_chains);
    }

    stats_.spmvPacks += matrix.packCount;
    charge(InstrClass::SpMV,
           matrix.packCount + config_.timings.spmvLatency);
}

void
Machine::run(const Program& program, Count max_instructions)
{
    RSQP_ASSERT(!program.code.empty(), "empty program");
    // Simulation-host parallelism for the C-wide datapath; 0 inherits
    // the ambient default and 1 forces the legacy serial walk.
    NumThreadsScope threads_scope(config_.execution.numThreads);
    const auto& timings = config_.timings;

    // Download the instruction ROM from HBM (paper Sec. 3.5): one
    // instruction word per cycle after the first-word latency.
    {
        const Count rom_cycles = timings.hbmLatency +
            static_cast<Count>(program.size());
        stats_.totalCycles += rom_cycles;
        stats_.classCycles[static_cast<std::size_t>(
            InstrClass::DataTransfer)] += rom_cycles;
    }

    Count executed = 0;
    std::size_t pc = 0;
    if (profiling_) {
        pcCounts_.assign(program.code.size(), 0);
        pcCycleCounts_.assign(program.code.size(), 0);
    }

    auto scalar = [&](Index id) -> Real& {
        RSQP_ASSERT(id >= 0 && id < kNumScalars, "bad scalar register ",
                    id);
        return scalars_[static_cast<std::size_t>(id)];
    };
    auto vec = [&](Index id) -> Vector& {
        RSQP_ASSERT(id >= 0 && id < static_cast<Index>(vectors_.size()),
                    "bad vector buffer id ", id);
        return vectors_[static_cast<std::size_t>(id)];
    };

    while (true) {
        RSQP_ASSERT(pc < program.code.size(), "pc ", pc,
                    " fell off the program");
        if (++executed > max_instructions)
            RSQP_PANIC("instruction budget exceeded (runaway program?)");
        const Instruction& instr = program.code[pc];
        std::size_t next_pc = pc + 1;
        if (profiling_)
            ++pcCounts_[pc];
        lastPc_ = pc;

        switch (instr.op) {
          case Opcode::Halt:
            charge(InstrClass::Control, timings.controlLatency);
            return;
          case Opcode::Jump:
            next_pc = static_cast<std::size_t>(instr.dst);
            charge(InstrClass::Control, timings.controlLatency);
            break;
          case Opcode::JumpIfLess:
            if (scalar(instr.a) < scalar(instr.b))
                next_pc = static_cast<std::size_t>(instr.dst);
            charge(InstrClass::Control, timings.controlLatency);
            break;
          case Opcode::JumpIfGeq:
            if (scalar(instr.a) >= scalar(instr.b))
                next_pc = static_cast<std::size_t>(instr.dst);
            charge(InstrClass::Control, timings.controlLatency);
            break;

          case Opcode::LoadConst:
            scalar(instr.dst) = instr.imm;
            charge(InstrClass::Scalar, timings.scalarLatency);
            break;
          case Opcode::ScalarAdd:
            scalar(instr.dst) = scalar(instr.a) + scalar(instr.b);
            charge(InstrClass::Scalar, timings.scalarLatency);
            break;
          case Opcode::ScalarSub:
            scalar(instr.dst) = scalar(instr.a) - scalar(instr.b);
            charge(InstrClass::Scalar, timings.scalarLatency);
            break;
          case Opcode::ScalarMul:
            scalar(instr.dst) = scalar(instr.a) * scalar(instr.b);
            charge(InstrClass::Scalar, timings.scalarLatency);
            break;
          case Opcode::ScalarDiv:
            scalar(instr.dst) = scalar(instr.a) / scalar(instr.b);
            charge(InstrClass::Scalar, timings.scalarLatency);
            break;
          case Opcode::ScalarMax:
            scalar(instr.dst) = std::max(scalar(instr.a), scalar(instr.b));
            charge(InstrClass::Scalar, timings.scalarLatency);
            break;
          case Opcode::ScalarSqrt:
            scalar(instr.dst) = std::sqrt(scalar(instr.a));
            charge(InstrClass::Scalar, timings.scalarLatency);
            break;
          case Opcode::ScalarAbs:
            scalar(instr.dst) = std::abs(scalar(instr.a));
            charge(InstrClass::Scalar, timings.scalarLatency);
            break;

          case Opcode::LoadVec: {
            const Vector& src = hbmValue(instr.a);
            Vector& dst = vec(instr.dst);
            RSQP_ASSERT(src.size() == dst.size(),
                        "ldv: length mismatch");
            dst = src;
            charge(InstrClass::DataTransfer,
                   vectorOpCycles(static_cast<Index>(dst.size())) +
                       timings.hbmLatency);
            break;
          }
          case Opcode::StoreVec: {
            RSQP_ASSERT(instr.dst >= 0 &&
                        instr.dst < static_cast<Index>(hbm_.size()),
                        "stv: bad HBM region");
            const Vector& src = vec(instr.a);
            hbm_[static_cast<std::size_t>(instr.dst)] = src;
            charge(InstrClass::DataTransfer,
                   vectorOpCycles(static_cast<Index>(src.size())) +
                       timings.hbmLatency);
            break;
          }

          case Opcode::VecAxpby: {
            const Vector& x = vec(instr.a);
            const Vector& y = vec(instr.b);
            Vector& dst = vec(instr.dst);
            RSQP_ASSERT(x.size() == y.size() && x.size() == dst.size(),
                        "vaxpby: length mismatch");
            const Real alpha = scalar(instr.sa);
            const Real beta = scalar(instr.sb);
            axpby(alpha, x, beta, y, dst);
            charge(InstrClass::VectorOp,
                   vectorOpCycles(static_cast<Index>(dst.size())) +
                       timings.vectorLatency);
            break;
          }
          case Opcode::VecEwProd: {
            const Vector& x = vec(instr.a);
            const Vector& y = vec(instr.b);
            Vector& dst = vec(instr.dst);
            RSQP_ASSERT(x.size() == y.size() && x.size() == dst.size(),
                        "vmul: length mismatch");
            ewProduct(x, y, dst);
            charge(InstrClass::VectorOp,
                   vectorOpCycles(static_cast<Index>(dst.size())) +
                       timings.vectorLatency);
            break;
          }
          case Opcode::VecEwRecip: {
            const Vector& x = vec(instr.a);
            Vector& dst = vec(instr.dst);
            RSQP_ASSERT(x.size() == dst.size(), "vrecip: length mismatch");
            for (std::size_t i = 0; i < dst.size(); ++i)
                dst[i] = 1.0 / x[i];
            charge(InstrClass::VectorOp,
                   vectorOpCycles(static_cast<Index>(dst.size())) +
                       timings.vectorLatency);
            break;
          }
          case Opcode::VecEwMin:
          case Opcode::VecEwMax: {
            const Vector& x = vec(instr.a);
            const Vector& y = vec(instr.b);
            Vector& dst = vec(instr.dst);
            RSQP_ASSERT(x.size() == y.size() && x.size() == dst.size(),
                        "vmin/vmax: length mismatch");
            if (instr.op == Opcode::VecEwMin)
                ewMin(x, y, dst);
            else
                ewMax(x, y, dst);
            charge(InstrClass::VectorOp,
                   vectorOpCycles(static_cast<Index>(dst.size())) +
                       timings.vectorLatency);
            break;
          }
          case Opcode::VecCopy: {
            const Vector& x = vec(instr.a);
            Vector& dst = vec(instr.dst);
            RSQP_ASSERT(x.size() == dst.size(), "vcopy: length mismatch");
            dst = x;
            charge(InstrClass::VectorOp,
                   vectorOpCycles(static_cast<Index>(dst.size())) +
                       timings.vectorLatency);
            break;
          }
          case Opcode::VecSetConst: {
            Vector& dst = vec(instr.dst);
            std::fill(dst.begin(), dst.end(), instr.imm);
            charge(InstrClass::VectorOp,
                   vectorOpCycles(static_cast<Index>(dst.size())) +
                       timings.vectorLatency);
            break;
          }
          case Opcode::VecDot: {
            const Vector& x = vec(instr.a);
            const Vector& y = vec(instr.b);
            RSQP_ASSERT(x.size() == y.size(), "vdot: length mismatch");
            scalar(instr.dst) = dot(x, y);
            charge(InstrClass::VectorOp,
                   vectorOpCycles(static_cast<Index>(x.size())) +
                       timings.vectorLatency + timings.dotExtraLatency);
            break;
          }
          case Opcode::VecAmax: {
            const Vector& x = vec(instr.a);
            scalar(instr.dst) = normInf(x);
            charge(InstrClass::VectorOp,
                   vectorOpCycles(static_cast<Index>(x.size())) +
                       timings.vectorLatency + timings.dotExtraLatency);
            break;
          }

          case Opcode::VecDup: {
            RSQP_ASSERT(instr.dst >= 0 &&
                        instr.dst < static_cast<Index>(matrices_.size()),
                        "vdup: bad CVB id");
            CompiledMatrix& matrix =
                matrices_[static_cast<std::size_t>(instr.dst)];
            const Vector& src = vec(instr.a);
            RSQP_ASSERT(static_cast<Index>(src.size()) == matrix.cols,
                        "vdup: vector length does not match matrix '",
                        matrix.name, "'");
            matrix.cvbVector = src;
            matrix.cvbLoaded = true;
            stats_.dupCells += matrix.storedCopies;
            charge(InstrClass::VectorDup,
                   matrix.plan.updateCycles() + timings.dupLatency);
            break;
          }

          case Opcode::SpMV:
            execSpmv(instr);
            break;
        }
        pc = next_pc;
    }
}

std::string
Machine::profileReport(const Program& program, std::size_t top_k) const
{
    RSQP_ASSERT(pcCounts_.size() == program.code.size(),
                "profileReport: program does not match the profiled run "
                "(enableProfiling before run?)");
    std::vector<std::size_t> order(pcCounts_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return pcCycleCounts_[a] > pcCycleCounts_[b];
              });

    Count total = 0;
    for (Count cycles : pcCycleCounts_)
        total += cycles;

    std::ostringstream oss;
    oss << "hottest instructions (" << total << " attributed cycles):\n";
    for (std::size_t k = 0; k < std::min(top_k, order.size()); ++k) {
        const std::size_t pc = order[k];
        if (pcCycleCounts_[pc] == 0)
            break;
        const Instruction& instr = program.code[pc];
        oss << "  pc " << pc << "  " << mnemonic(instr.op) << "\tx"
            << pcCounts_[pc] << "\t" << pcCycleCounts_[pc]
            << " cycles (" << (total > 0
                ? 100 * pcCycleCounts_[pc] / total : 0)
            << "%)";
        if (!instr.comment.empty())
            oss << "\t; " << instr.comment;
        oss << "\n";
    }
    return oss.str();
}

} // namespace rsqp
