/**
 * @file
 * Quickstart: define a small QP by hand, solve it on the CPU reference
 * solver and on a problem-customized simulated RSQP accelerator, and
 * compare the results.
 *
 *   minimize    (1/2) x' [[4,1],[1,2]] x + [1,1]' x
 *   subject to  1 <= x0 + x1 <= 1,   0 <= x0 <= 0.7,  0 <= x1 <= 0.7
 *
 * (the classic OSQP demo problem; optimum ~ (0.3, 0.7)).
 */

#include <cstdio>
#include <future>

#include "rsqp_api.hpp"

using namespace rsqp;

int
main()
{
    // --- 1. Problem data (P upper-triangular CSC via triplets) ----------
    QpProblem qp;
    TripletList p_triplets(2, 2);
    p_triplets.add(0, 0, 4.0);
    p_triplets.add(0, 1, 1.0);
    p_triplets.add(1, 1, 2.0);
    qp.pUpper = CscMatrix::fromTriplets(p_triplets);
    qp.q = {1.0, 1.0};

    TripletList a_triplets(3, 2);
    a_triplets.add(0, 0, 1.0);
    a_triplets.add(0, 1, 1.0);
    a_triplets.add(1, 0, 1.0);
    a_triplets.add(2, 1, 1.0);
    qp.a = CscMatrix::fromTriplets(a_triplets);
    qp.l = {1.0, 0.0, 0.0};
    qp.u = {1.0, 0.7, 0.7};
    qp.name = "quickstart";

    // --- 2. Reference CPU solve (direct LDL' backend) -------------------
    OsqpSettings settings;
    settings.epsAbs = 1e-5;
    settings.epsRel = 1e-5;
    OsqpSolver cpu(qp, settings);
    const OsqpResult ref = cpu.solve();
    std::printf("CPU   : status=%s x=(%.4f, %.4f) obj=%.6f iters=%d\n",
                statusToString(ref.info.status), ref.x[0], ref.x[1],
                ref.info.objective, ref.info.iterations);

    // --- 3. Accelerated solve on a customized architecture --------------
    settings.backend = KktBackend::IndirectPcg;
    CustomizeSettings custom;
    custom.c = 16;  // datapath width
    RsqpSolver fpga(qp, settings, custom);
    const RsqpResult acc = fpga.solve();
    std::printf("RSQP  : status=%s x=(%.4f, %.4f) obj=%.6f iters=%d\n",
                statusToString(acc.status), acc.x[0], acc.x[1], acc.objective,
                acc.iterations);
    std::printf("arch  : %s  eta=%.3f  fmax=%.0f MHz\n",
                acc.archName.c_str(), acc.eta, acc.fmaxMhz);
    std::printf("cycles: %lld  (%.2f us simulated device time)\n",
                static_cast<long long>(acc.machineStats.totalCycles),
                acc.deviceSeconds * 1e6);

    // --- 4. First-order backend knobs ------------------------------------
    // The host solve can also run on the restarted PDHG engine.
    // BackendKind::Auto lets the per-problem selector pick the engine
    // once at setup.
    OsqpSettings pdhg_settings = settings;
    pdhg_settings.backend = KktBackend::DirectLdl;
    pdhg_settings.firstOrder.method = BackendKind::Pdhg;
    pdhg_settings.firstOrder.pdhg.restart = PdhgRestart::Adaptive;
    const OsqpResult pdhg_ref = makeBackend(qp, pdhg_settings)->solve();
    std::printf("pdhg  : status=%s x=(%.4f, %.4f) obj=%.6f iters=%d "
                "restarts=%lld\n",
                statusToString(pdhg_ref.info.status), pdhg_ref.x[0],
                pdhg_ref.x[1], pdhg_ref.info.objective,
                pdhg_ref.info.iterations,
                static_cast<long long>(
                    pdhg_ref.info.telemetry.restarts));

    // --- 5. The same QP through the multi-client service ----------------
    // Serving path: open a session, describe the request in
    // SubmitOptions (admission class, deadline, warm start), and
    // either take a future (shown here) or pass submitAsync a
    // callback (see examples/async_service.cpp).
    SolverService service;
    const SessionId session = service.openSession();
    SubmitOptions options;
    options.admissionClass = AdmissionClass::Interactive;
    std::future<SessionResult> pending =
        service.submit(session, qp, options);
    const SessionResult served = pending.get();
    std::printf("serve : status=%s x=(%.4f, %.4f) obj=%.6f\n",
                statusToString(served.status), served.x[0],
                served.x[1], served.objective);

    // --- 6. The generated "hardware" artifact ---------------------------
    const std::string header =
        generateArchitectureHeader(fpga.config());
    std::printf("\ngenerated HLS architecture header (%zu bytes), "
                "first lines:\n",
                header.size());
    std::printf("%.*s...\n", 240, header.c_str());
    return 0;
}
