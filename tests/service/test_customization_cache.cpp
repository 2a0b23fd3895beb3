/**
 * @file
 * Customization cache + freeze/thaw tests: a thawed artifact must
 * reproduce the full pipeline bitwise, the cache must account for its
 * footprint, and non-cacheable keys must bypass it.
 */

#include <gtest/gtest.h>

#include "core/customization.hpp"
#include "core/rsqp_solver.hpp"
#include "osqp/scaling.hpp"
#include "problems/suite.hpp"
#include "service/customization_cache.hpp"

namespace rsqp
{
namespace
{

CustomizeSettings
customFor()
{
    CustomizeSettings custom;
    custom.c = 16;
    return custom;
}

/** Scale the way RsqpSolver does before customizing. */
QpProblem
scaledCopy(const QpProblem& qp)
{
    QpProblem scaled = qp;
    const OsqpSettings settings;
    ruizEquilibrate(scaled, settings.scalingIterations);
    return scaled;
}

/** Bitwise equality of two packed HBM streams. */
void
expectPackedEqual(const PackedMatrix& a, const PackedMatrix& b,
                  const char* what)
{
    ASSERT_EQ(a.packs.size(), b.packs.size()) << what;
    EXPECT_EQ(a.ep, b.ep) << what;
    EXPECT_EQ(a.nnz, b.nnz) << what;
    for (std::size_t i = 0; i < a.packs.size(); ++i) {
        EXPECT_EQ(a.packs[i].values, b.packs[i].values)
            << what << " pack " << i;
        EXPECT_EQ(a.packs[i].colIdx, b.packs[i].colIdx)
            << what << " pack " << i;
    }
}

TEST(CustomizationCache, ThawReproducesCustomizationBitwise)
{
    const QpProblem scaled =
        scaledCopy(generateProblem(Domain::Control, 25, 13));
    const CustomizeSettings custom = customFor();

    const ProblemCustomization cold = customizeProblem(scaled, custom);
    const CustomizationArtifact artifact = freezeCustomization(cold);
    ASSERT_TRUE(artifact.compatibleWith(scaled, custom));
    const ProblemCustomization thawed =
        thawCustomization(scaled, artifact, custom);

    EXPECT_EQ(thawed.config.c, cold.config.c);
    EXPECT_EQ(thawed.config.structures.patterns(),
              cold.config.structures.patterns());
    EXPECT_EQ(thawed.p.str.encoded, cold.p.str.encoded);
    EXPECT_EQ(thawed.a.str.encoded, cold.a.str.encoded);
    EXPECT_EQ(thawed.at.str.encoded, cold.at.str.encoded);
    expectPackedEqual(thawed.p.packed, cold.p.packed, "P");
    expectPackedEqual(thawed.a.packed, cold.a.packed, "A");
    expectPackedEqual(thawed.at.packed, cold.at.packed, "At");
    expectPackedEqual(thawed.atSq.packed, cold.atSq.packed, "AtSq");
    EXPECT_EQ(thawed.a.plan.address, cold.a.plan.address);
    EXPECT_EQ(thawed.eta(), cold.eta());
}

TEST(CustomizationCache, ThawRejectsStructuralMismatch)
{
    const QpProblem scaledA =
        scaledCopy(generateProblem(Domain::Lasso, 20, 3));
    const QpProblem scaledB =
        scaledCopy(generateProblem(Domain::Lasso, 30, 3));
    const CustomizeSettings custom = customFor();

    const CustomizationArtifact artifact =
        freezeCustomization(customizeProblem(scaledA, custom));
    EXPECT_FALSE(artifact.compatibleWith(scaledB, custom));

    CustomizeSettings wider = custom;
    wider.c = 32;
    EXPECT_FALSE(artifact.compatibleWith(scaledA, wider));
}

TEST(CustomizationCache, InsertFindAndFootprint)
{
    const QpProblem qp = generateProblem(Domain::Huber, 20, 5);
    const QpProblem scaled = scaledCopy(qp);
    const CustomizeSettings custom = customFor();
    const StructureFingerprint fp =
        fingerprintCustomization(qp, custom);

    CustomizationCache cache(4);
    EXPECT_EQ(cache.find(fp), nullptr);

    auto artifact = std::make_shared<CustomizationArtifact>(
        freezeCustomization(customizeProblem(scaled, custom)));
    const Count footprint = artifact->footprintBytes();
    EXPECT_GT(footprint, 0);
    cache.insert(fp, artifact);

    EXPECT_EQ(cache.find(fp), artifact);
    const CustomizationCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.size, 1u);
    EXPECT_EQ(stats.footprintBytes, footprint);

    // Overwriting the same key must not double-count the footprint.
    cache.insert(fp, artifact);
    EXPECT_EQ(cache.stats().footprintBytes, footprint);

    cache.clear();
    EXPECT_EQ(cache.stats().footprintBytes, 0);
    EXPECT_EQ(cache.stats().size, 0u);
}

TEST(CustomizationCache, NonCacheableKeysBypass)
{
    const QpProblem qp = generateProblem(Domain::Svm, 15, 1);
    CustomizeSettings settings = customFor();
    settings.search.objective = [](const StructureSet&, Count) {
        return 0.0;
    };
    const StructureFingerprint fp =
        fingerprintCustomization(qp, settings);
    ASSERT_FALSE(fp.cacheable);

    CustomizationCache cache(4);
    cache.insert(fp,
                 std::make_shared<CustomizationArtifact>(
                     freezeCustomization(customizeProblem(
                         scaledCopy(qp), customFor()))));
    EXPECT_EQ(cache.find(fp), nullptr);
    EXPECT_EQ(cache.stats().size, 0u);
    EXPECT_EQ(cache.stats().footprintBytes, 0);
}

TEST(CustomizationCache, EvictionKeepsFootprintConsistent)
{
    const CustomizeSettings custom = customFor();
    CustomizationCache cache(1);

    const QpProblem qpA = generateProblem(Domain::Control, 15, 2);
    const QpProblem qpB = generateProblem(Domain::Control, 22, 2);
    auto artifactA = std::make_shared<CustomizationArtifact>(
        freezeCustomization(customizeProblem(scaledCopy(qpA), custom)));
    auto artifactB = std::make_shared<CustomizationArtifact>(
        freezeCustomization(customizeProblem(scaledCopy(qpB), custom)));

    cache.insert(fingerprintCustomization(qpA, custom), artifactA);
    cache.insert(fingerprintCustomization(qpB, custom), artifactB);

    const CustomizationCacheStats stats = cache.stats();
    EXPECT_EQ(stats.size, 1u);
    EXPECT_EQ(stats.evictions, 1);
    EXPECT_EQ(stats.footprintBytes, artifactB->footprintBytes());
}

TEST(CustomizationCache, SolverReportsArtifactReuse)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 25, 17);
    OsqpSettings settings;
    const CustomizeSettings custom = customFor();

    RsqpSolver cold(qp, settings, custom);
    EXPECT_FALSE(cold.customizationReused());
    auto artifact = std::make_shared<const CustomizationArtifact>(
        freezeCustomization(cold.customization()));

    RsqpSolver warm(qp, settings, custom, artifact);
    EXPECT_TRUE(warm.customizationReused());

    const OsqpResult a = cold.solve();
    const OsqpResult b = warm.solve();
    ASSERT_EQ(a.info.status, b.info.status);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.y, b.y);
    EXPECT_EQ(a.info.iterations, b.info.iterations);
    EXPECT_EQ(a.machineStats.totalCycles, b.machineStats.totalCycles);
}

} // namespace
} // namespace rsqp
