/**
 * @file
 * Parametric matrix-update tests on the accelerator: new values with
 * the same sparsity reuse the schedule, the CVB plans, and the
 * program; results match fresh solvers; structural changes are
 * rejected.
 */

#include <gtest/gtest.h>

#include "arch/machine.hpp"
#include "arch/program_builder.hpp"
#include "core/rsqp_solver.hpp"
#include "osqp/solver.hpp"
#include "problems/generators.hpp"
#include "problems/suite.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

TEST(MatrixUpdate, MachineSpmvReflectsNewValues)
{
    Rng rng(1);
    const CscMatrix csc = test::randomSparse(20, 15, 0.3, rng);
    const CsrMatrix csr = CsrMatrix::fromCsc(csc);
    const StructureSet set = StructureSet::baseline(8);
    const SparsityString str = encodeMatrix(csr, 8);
    const Schedule schedule = scheduleString(str, set);
    const PackedMatrix packed = packMatrix(csr, str, schedule, set);

    ArchConfig config;
    config.c = 8;
    config.structures = set;
    Machine machine(config);
    const Index mat = machine.addMatrix(
        packed, fullDuplicationPlan(8, 15), "M");
    const Index v_in = machine.addVector(15);
    const Index v_out = machine.addVector(20);
    const Index hbm_in =
        machine.addHbmVector(test::randomVector(15, rng));

    ProgramBuilder asmb;
    asmb.loadVec(v_in, hbm_in);
    asmb.vecDup(mat, v_in);
    asmb.spmv(v_out, mat);
    asmb.halt();
    const Program program = asmb.finish();
    machine.run(program);
    const Vector y_before = machine.vectorValue(v_out);

    // Scale all values by 3 and update in place.
    CsrMatrix scaled_csr = csr;
    for (Real& v : scaled_csr.values())
        v *= 3.0;
    const PackedMatrix repacked =
        packMatrix(scaled_csr, str, schedule, set);
    machine.updateMatrixValues(mat, repacked);
    machine.run(program);
    const Vector y_after = machine.vectorValue(v_out);
    for (std::size_t i = 0; i < y_before.size(); ++i)
        EXPECT_NEAR(y_after[i], 3.0 * y_before[i],
                    1e-10 * (1.0 + std::abs(y_before[i])));
}

TEST(MatrixUpdate, MachineRejectsStructureMismatch)
{
    Rng rng(2);
    const CsrMatrix csr =
        CsrMatrix::fromCsc(test::randomSparse(10, 10, 0.3, rng));
    const CsrMatrix other =
        CsrMatrix::fromCsc(test::randomSparse(12, 10, 0.3, rng));
    const StructureSet set = StructureSet::baseline(4);
    const SparsityString str = encodeMatrix(csr, 4);
    const Schedule schedule = scheduleString(str, set);
    const PackedMatrix packed = packMatrix(csr, str, schedule, set);
    const SparsityString other_str = encodeMatrix(other, 4);
    const Schedule other_schedule = scheduleString(other_str, set);
    const PackedMatrix other_packed =
        packMatrix(other, other_str, other_schedule, set);

    ArchConfig config;
    config.c = 4;
    config.structures = set;
    Machine machine(config);
    const Index mat =
        machine.addMatrix(packed, fullDuplicationPlan(4, 10), "M");
    EXPECT_DEATH(machine.updateMatrixValues(mat, other_packed),
                 "structure mismatch");
}

TEST(MatrixUpdate, RsqpSolverMatchesFreshSolver)
{
    const QpProblem qp = generateProblem(Domain::Eqqp, 30, 7);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, settings, custom);
    const OsqpResult first = solver.solve();
    ASSERT_EQ(first.info.status, SolveStatus::Solved);

    // New A values (same pattern).
    std::vector<Real> a_values = qp.a.values();
    for (Real& v : a_values)
        v *= 0.7;
    solver.updateMatrixValues({}, a_values);
    const OsqpResult updated = solver.solve();
    ASSERT_EQ(updated.info.status, SolveStatus::Solved);

    QpProblem qp2 = qp;
    qp2.a.values() = a_values;
    OsqpSolver reference(qp2, settings);
    const OsqpResult ref = reference.solve();
    ASSERT_EQ(ref.info.status, SolveStatus::Solved);
    EXPECT_NEAR(updated.info.objective, ref.info.objective,
                2e-2 * (1.0 + std::abs(ref.info.objective)));
}

TEST(MatrixUpdate, RsqpSolverPUpdateRebuildsPreconditionerData)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 30, 9);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, settings, custom);
    solver.solve();

    std::vector<Real> p_values = qp.pUpper.values();
    for (Real& v : p_values)
        v *= 2.0;
    solver.updateMatrixValues(p_values, {});
    const OsqpResult updated = solver.solve();
    ASSERT_EQ(updated.info.status, SolveStatus::Solved);

    QpProblem qp2 = qp;
    qp2.pUpper.values() = p_values;
    OsqpSolver reference(qp2, settings);
    const OsqpResult ref = reference.solve();
    EXPECT_NEAR(updated.info.objective, ref.info.objective,
                2e-2 * (1.0 + std::abs(ref.info.objective)));
}

TEST(MatrixUpdate, EmptyUpdateIsNoOp)
{
    // A second run starts PCG from the first run's x~, so the updated
    // solver is compared with a twin that runs twice without the update.
    const QpProblem qp = generateProblem(Domain::Svm, 15, 11);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, settings, custom);
    RsqpSolver twin(qp, settings, custom);
    solver.solve();
    twin.solve();
    solver.updateMatrixValues({}, {});
    const OsqpResult updated = solver.solve();
    const OsqpResult plain = twin.solve();
    EXPECT_EQ(updated.info.iterations, plain.info.iterations);
    EXPECT_LT(test::maxAbsDiff(updated.x, plain.x), 1e-12);
}

} // namespace
} // namespace rsqp
