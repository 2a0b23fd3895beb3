/**
 * @file
 * ExecutionConfig tests: the single numThreads knob shared by
 * OsqpSettings / CustomizeSettings / ArchConfig. The deprecated
 * per-struct forwarding aliases are gone; resolvedNumThreads() now
 * simply reads execution.numThreads on every carrier struct.
 */

#include <gtest/gtest.h>

#include "arch/config.hpp"
#include "common/execution.hpp"
#include "core/customization.hpp"
#include "osqp/settings.hpp"

namespace rsqp
{
namespace
{

TEST(ExecutionConfig, OsqpSettingsReadThrough)
{
    OsqpSettings settings;
    EXPECT_EQ(settings.resolvedNumThreads(), 0);
    settings.execution.numThreads = 3;
    EXPECT_EQ(settings.resolvedNumThreads(), 3);
}

TEST(ExecutionConfig, CustomizeSettingsReadThrough)
{
    CustomizeSettings custom;
    EXPECT_EQ(custom.resolvedNumThreads(), 0);
    custom.execution.numThreads = 2;
    EXPECT_EQ(custom.resolvedNumThreads(), 2);
}

TEST(ExecutionConfig, ArchConfigReadThrough)
{
    ArchConfig config;
    EXPECT_EQ(config.resolvedNumThreads(), 0);
    config.execution.numThreads = 6;
    EXPECT_EQ(config.resolvedNumThreads(), 6);
}

} // namespace
} // namespace rsqp
