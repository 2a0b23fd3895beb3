/**
 * @file
 * ExecutionConfig: the one place execution-resource knobs live.
 *
 * OsqpSettings, CustomizeSettings and ArchConfig each carry one, and
 * every consumer reads execution.numThreads directly. The thread count
 * is the only knob: the host PCG runs in fp64 alone, and the paper's
 * fp32 datapath is a simulated-device setting
 * (CustomizeSettings::fp32Datapath).
 */

#ifndef RSQP_COMMON_EXECUTION_HPP
#define RSQP_COMMON_EXECUTION_HPP

#include "common/types.hpp"

namespace rsqp
{

/** Execution-resource configuration shared by all solve paths. */
struct ExecutionConfig
{
    /**
     * Worker threads for the parallel hot path. 0 means the hardware
     * thread count, read once per process; 1 forces fully serial
     * execution. The result is bitwise-identical at every setting —
     * threading only changes wall clock, never the deterministic
     * reduction order.
     */
    Index numThreads = 0;
};

} // namespace rsqp

#endif // RSQP_COMMON_EXECUTION_HPP
