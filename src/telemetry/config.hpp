/**
 * @file
 * Compile-time switch for the telemetry subsystem.
 *
 * The build defines RSQP_TELEMETRY_DISABLED (via -DRSQP_TELEMETRY=OFF
 * at configure time) to compile out the hot-path instrumentation:
 * TELEMETRY_SPAN expands to nothing (the PCG phase spans included)
 * and the thread pool's queue-wait stamping, guarded by
 * RSQP_TELEMETRY_ENABLED, disappears. The metrics registry itself stays
 * functional in both modes — service-level counters (queue depth,
 * cache hits, per-session solves) are control-plane state that the
 * serving layer depends on, not optional profiling.
 */

#ifndef RSQP_TELEMETRY_CONFIG_HPP
#define RSQP_TELEMETRY_CONFIG_HPP

#if defined(RSQP_TELEMETRY_DISABLED)
#define RSQP_TELEMETRY_ENABLED 0
#else
#define RSQP_TELEMETRY_ENABLED 1
#endif

namespace rsqp::telemetry
{

/** True when the build compiled the span/timing instrumentation in. */
inline constexpr bool kTelemetryCompiled = RSQP_TELEMETRY_ENABLED != 0;

} // namespace rsqp::telemetry

#endif // RSQP_TELEMETRY_CONFIG_HPP
