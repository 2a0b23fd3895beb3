/**
 * @file
 * Umbrella public header of the RSQP library.
 *
 * Typical use:
 *
 * @code
 *   #include "core/rsqp.hpp"
 *
 *   rsqp::QpProblem qp = ...;            // P (upper CSC), q, A, l, u
 *   rsqp::OsqpSettings settings;         // defaults follow OSQP
 *   settings.backend = rsqp::KktBackend::IndirectPcg;
 *
 *   // Reference CPU solve:
 *   rsqp::OsqpSolver cpu(qp, settings);
 *   auto ref = cpu.solve();
 *
 *   // Accelerated solve on a problem-customized architecture:
 *   rsqp::CustomizeSettings custom;      // C = 64, E_p + E_c on
 *   rsqp::RsqpSolver fpga(qp, settings, custom);
 *   auto acc = fpga.solve();             // acc.deviceSeconds, acc.eta
 * @endcode
 */

#ifndef RSQP_CORE_RSQP_HPP
#define RSQP_CORE_RSQP_HPP

#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/customization.hpp"
#include "core/design_space.hpp"
#include "core/hls_codegen.hpp"
#include "core/memory_model.hpp"
#include "core/report.hpp"
#include "core/rsqp_solver.hpp"
#include "core/structure_adapt.hpp"
#include "encoding/lzw.hpp"
#include "encoding/match_score.hpp"
#include "gpu/gpu_model.hpp"
#include "hwmodel/devices.hpp"
#include "hwmodel/power.hpp"
#include "hwmodel/resources.hpp"
#include "osqp/builder.hpp"
#include "osqp/polish.hpp"
#include "osqp/problem_io.hpp"
#include "osqp/residuals.hpp"
#include "osqp/solver.hpp"
#include "problems/generators.hpp"
#include "problems/suite.hpp"

#endif // RSQP_CORE_RSQP_HPP
