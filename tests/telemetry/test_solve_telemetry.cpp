/**
 * @file
 * SolveTelemetry record tests: residual-tail ring semantics, JSON
 * export, and the end-to-end attachment of a populated record to
 * OsqpInfo by a real CPU solve.
 */

#include <string>

#include <gtest/gtest.h>

#include "osqp/solver.hpp"
#include "problems/suite.hpp"
#include "telemetry/solve_telemetry.hpp"

namespace rsqp
{
namespace
{

/** Object keys of a JSON text without escaped quotes, in order of
 *  appearance, each followed by a space. */
std::string
jsonKeys(const std::string& json)
{
    std::string keys;
    std::size_t pos = 0;
    while ((pos = json.find('"', pos)) != std::string::npos) {
        const std::size_t end = json.find('"', pos + 1);
        if (end == std::string::npos)
            break;
        if (end + 1 < json.size() && json[end + 1] == ':')
            keys += json.substr(pos + 1, end - pos - 1) + ' ';
        pos = end + 1;
    }
    return keys;
}

TEST(SolveTelemetryRecord, ResidualTailKeepsLastEntries)
{
    SolveTelemetry telemetry;
    for (Index i = 0; i < 12; ++i)
        telemetry.pushResidual(i, 1.0 / (i + 1), 2.0 / (i + 1));
    ASSERT_EQ(telemetry.residualTail.size(), kResidualTailCapacity);
    EXPECT_EQ(telemetry.residualTail.front().iteration,
              12 - static_cast<Index>(kResidualTailCapacity));
    EXPECT_EQ(telemetry.residualTail.back().iteration, 11);
}

TEST(SolveTelemetryRecord, RouteNames)
{
    EXPECT_STREQ(toString(SolveRoute::None), "none");
    EXPECT_STREQ(toString(SolveRoute::Parametric), "parametric");
    EXPECT_STREQ(toString(SolveRoute::CacheThaw), "cache_thaw");
    EXPECT_STREQ(toString(SolveRoute::FullCustomize), "full_customize");
}

TEST(SolveTelemetryRecord, JsonCarriesCoreFields)
{
    SolveTelemetry telemetry;
    telemetry.iterations = 50;
    telemetry.kktSolves = 50;
    telemetry.pcgIterationsTotal = 400;
    telemetry.pcgItersPerSolve = 8.0;
    telemetry.route = SolveRoute::Parametric;
    telemetry.pushResidual(49, 1e-5, 2e-5);

    const std::string json = telemetry.toJson();
    EXPECT_NE(json.find("\"iterations\":50"), std::string::npos);
    EXPECT_NE(json.find("\"route\":\"parametric\""), std::string::npos);
    EXPECT_NE(json.find("\"residual_tail\""), std::string::npos);
    EXPECT_NE(json.find("\"pcg_iterations_total\":400"),
              std::string::npos);

    // The exact key sequence pins the schema: adding or dropping a key
    // (isa_level included, precision-mode keys excluded) has to edit
    // this list deliberately.
    EXPECT_EQ(jsonKeys(json),
              "backend restarts iterations kkt_solves "
              "pcg_iterations_total pcg_iters_per_solve isa_level "
              "recovery_events route queue_wait_seconds "
              "setup_seconds solve_seconds residual_tail iter prim_res "
              "dual_res ");
}

TEST(SolveTelemetryRecord, AttachedToOsqpInfoBySolve)
{
    const QpProblem qp = generateProblem(Domain::Lasso, 20, 11);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    OsqpSolver solver(qp, settings);
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);

    const SolveTelemetry& telemetry = result.info.telemetry;
    EXPECT_EQ(telemetry.iterations, result.info.iterations);
    EXPECT_GT(telemetry.kktSolves, 0);
    EXPECT_EQ(telemetry.pcgIterationsTotal,
              result.info.pcgIterationsTotal);
    EXPECT_FALSE(telemetry.residualTail.empty());
    EXPECT_GE(telemetry.solveSeconds, 0.0);

    // A second solve must reset the record, not accumulate into it.
    const OsqpResult again = solver.solve();
    EXPECT_EQ(again.info.telemetry.iterations, again.info.iterations);
    EXPECT_LE(again.info.telemetry.residualTail.size(),
              kResidualTailCapacity);
}

} // namespace
} // namespace rsqp
