#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace perfbench
{

using rsqp::AdmissionClass;
using rsqp::Domain;

namespace
{

/** `count` sizes spaced geometrically over [lo, hi], rounded. */
std::vector<rsqp::Index>
ladder(double lo, double hi, int count)
{
    std::vector<rsqp::Index> sizes;
    for (int i = 0; i < count; ++i) {
        const double t = count > 1 ? double(i) / double(count - 1) : 0.0;
        sizes.push_back(static_cast<rsqp::Index>(
            std::lround(lo * std::pow(hi / lo, t))));
    }
    return sizes;
}

/**
 * One structure of a workload. The sparsity pattern and base values
 * come from a fixed per-slot seed, so every run serves the same
 * structures; the run seed draws the value variants (and, in the
 * callers, the request stream).
 */
Structure
makeStructure(Domain domain, rsqp::Index size, std::uint64_t slot,
              std::uint64_t seed, std::size_t variants, double eps)
{
    Structure s;
    s.base = rsqp::generateProblem(domain, size, 1000 + slot);
    rsqp::Rng rng(seed * 0x9e3779b97f4a7c15ULL + slot);
    for (std::size_t v = 0; v < variants; ++v)
        s.variants.push_back(perturbValues(s.base, rng, eps));
    return s;
}

// host_pcg_large -------------------------------------------------------

// Lasso and SVM only: their reduced KKT systems take 13-20 PCG
// iterations per solve, so a warm value-only re-solve of a 2e5-4e5 nnz
// structure costs 0.1-0.2 s and a run completes over 100 requests.
// Control and Huber structures of that size take 90-300 PCG
// iterations per KKT solve (0.8-3 s per request).
Workload
hostPcgLarge(std::uint64_t seed)
{
    Workload w;
    w.name = "host_pcg_large";
    const std::pair<Domain, rsqp::Index> shapes[] = {
        {Domain::Lasso, 1000}, {Domain::Lasso, 1200},
        {Domain::Svm, 600},    {Domain::Svm, 700}};
    rsqp::SessionConfig config;
    config.engine = rsqp::SessionEngine::Host;
    config.osqp.backend = rsqp::KktBackend::IndirectPcg;
    std::uint64_t k = 0;
    for (const auto& [domain, size] : shapes) {
        // Small perturbations: the warm start stays close, so each
        // request converges at the first termination check.
        w.structures.push_back(
            makeStructure(domain, size, k, seed, 6, 3e-4));
        w.sessions.push_back(config);
        const auto s = static_cast<std::uint32_t>(k);
        w.warmup.push_back({s, s, 0, AdmissionClass::Realtime, 0.0});
        w.warmup.push_back({s, s, 1, AdmissionClass::Realtime, 0.0});
        ++k;
    }
    w.clients = 1;
    const auto sessions = static_cast<std::uint32_t>(w.sessions.size());
    w.makeSource = [sessions](std::uint64_t s) -> ClosedSource {
        auto rng = std::make_shared<rsqp::Rng>(s);
        auto turn = std::make_shared<std::uint32_t>(0);
        return [rng, turn, sessions](unsigned) {
            RequestSpec spec;
            spec.session = (*turn)++ % sessions;
            spec.structure = spec.session;
            spec.variant =
                static_cast<std::uint32_t>(1 + rng->uniformIndex(5));
            spec.cls = AdmissionClass::Realtime;
            return spec;
        };
    };
    return w;
}

// device_churn ---------------------------------------------------------

constexpr int kChurnSizesPerDomain = 40;
constexpr int kChurnSizeStride = 23;  // coprime with 40, near 40/phi
// Route pattern per block of 20 requests: 4 value-only (parametric), 8
// revisits of the 8 most recent structures in turn (cache thaw), 8 new
// structures (customize, insert, evict).
constexpr std::size_t kChurnBlock = 20;
constexpr char kChurnPattern[kChurnBlock + 1] = "chpchcphchcphchcphch";
constexpr std::size_t kChurnHotSet = 8;

Workload
deviceChurn(std::uint64_t seed)
{
    Workload w;
    w.name = "device_churn";
    // 240 structures, about 1e2-1e5 nnz. Sizes are capped so one
    // simulated solve stays under about 0.2 s: a narrow cost range
    // keeps a run's latency percentiles steady.
    const std::pair<Domain, std::pair<double, double>> ranges[] = {
        {Domain::Control, {4, 12}},   {Domain::Lasso, {20, 320}},
        {Domain::Huber, {15, 120}},   {Domain::Portfolio, {50, 400}},
        {Domain::Svm, {20, 320}},     {Domain::Eqqp, {40, 400}}};
    std::uint64_t k = 0;
    for (const auto& [domain, range] : ranges)
        for (rsqp::Index size :
             ladder(range.first, range.second, kChurnSizesPerDomain))
            w.structures.push_back(
                makeStructure(domain, size, k++, seed, 4, 1e-2));

    // Default service settings: one fleet core whose run slots let both
    // clients solve at once, and one cache partition of 16 artifacts,
    // far smaller than the pool.
    w.clients = 2;
    w.sessions.assign(w.clients, rsqp::SessionConfig());

    // Warm-up on the same mid-size lasso and SVM slots every seed, so
    // set-up cost does not depend on the draw.
    const std::vector<std::uint32_t> start = {
        1 * kChurnSizesPerDomain + kChurnSizesPerDomain / 2,
        4 * kChurnSizesPerDomain + kChurnSizesPerDomain / 2};
    for (std::uint32_t c = 0; c < w.clients; ++c) {
        w.warmup.push_back({c, start[c], 0, AdmissionClass::Realtime, 0.0});
        w.warmup.push_back({c, start[c], 1, AdmissionClass::Realtime, 0.0});
    }

    // Cold requests rotate through the six domains and walk each
    // domain's sizes from a seeded start, so every run sees the same mix
    // of domains and sizes; each client follows the fixed route pattern.
    const std::uint32_t pool = static_cast<std::uint32_t>(w.structures.size());
    w.makeSource = [start, pool](std::uint64_t s) -> ClosedSource {
        struct State
        {
            rsqp::Rng rng;
            std::vector<rsqp::IndexVector> order;  ///< per domain
            std::size_t cursor = 0;
            std::size_t hotTurn = 0;
            std::vector<std::uint32_t> current;
            std::deque<std::uint32_t> recent;
            std::vector<std::vector<char>> blocks;
        };
        auto st = std::make_shared<State>();
        st->rng = rsqp::Rng(s);
        // A seeded start and a stride coprime with the ladder length:
        // any run of consecutive visits spreads evenly over the sizes.
        for (std::uint32_t d = 0; d * kChurnSizesPerDomain < pool; ++d) {
            const rsqp::Index offset =
                st->rng.uniformIndex(kChurnSizesPerDomain);
            rsqp::IndexVector walk;
            for (rsqp::Index i = 0; i < kChurnSizesPerDomain; ++i)
                walk.push_back((offset + i * kChurnSizeStride) %
                               kChurnSizesPerDomain);
            st->order.push_back(std::move(walk));
        }
        st->current = start;
        st->recent.assign(start.begin(), start.end());
        st->blocks.resize(start.size());
        return [st](unsigned client) {
            std::vector<char>& block = st->blocks[client];
            if (block.empty())
                block.assign(kChurnPattern, kChurnPattern + kChurnBlock);
            const char route = block.back();
            block.pop_back();

            std::uint32_t& cur = st->current[client];
            const std::uint32_t other = st->current[1 - client];
            auto inRecent = [&](std::uint32_t x) {
                return std::find(st->recent.begin(), st->recent.end(), x) !=
                    st->recent.end();
            };
            std::vector<std::uint32_t> hot;
            for (std::uint32_t x : st->recent)
                if (x != cur && x != other)
                    hot.push_back(x);
            std::uint32_t pick = cur;
            if (route == 'h' && !hot.empty()) {
                pick = hot[st->hotTurn++ % hot.size()];
            } else if (route != 'p') {
                while (pick == cur || pick == other || inRecent(pick)) {
                    const std::size_t d = st->cursor % st->order.size();
                    const std::size_t i = st->cursor / st->order.size();
                    pick = static_cast<std::uint32_t>(
                        d * kChurnSizesPerDomain +
                        st->order[d][i % kChurnSizesPerDomain]);
                    ++st->cursor;
                }
            }
            if (pick != cur && !inRecent(pick)) {
                st->recent.push_back(pick);
                if (st->recent.size() > kChurnHotSet)
                    st->recent.pop_front();
            }
            cur = pick;
            RequestSpec spec;
            spec.session = client;
            spec.structure = pick;
            spec.variant = static_cast<std::uint32_t>(st->rng.uniformIndex(4));
            spec.cls = AdmissionClass::Realtime;
            return spec;
        };
    };
    return w;
}

// mixed_classes --------------------------------------------------------

/**
 * Offered rate of mixed_classes (requests/s), frozen at about half the
 * capacity measured on the 3-core fleet when the benchmark was defined:
 * 90 req/s ran with a steady backlog, at 120 req/s the backlog grew.
 */
constexpr double kMixedRate = 60.0;

/** Value variants per structure: successive control steps, sweep
 *  points and rebalances differ by 0.1% in q and the bounds. */
constexpr std::size_t kMixedVariants = 64;

/** Trace shape of one client population (as in bench_soak). */
struct Population
{
    AdmissionClass cls;
    double share;
    std::size_t groupSize;   ///< requests per chain/sweep/burst
    double gapFraction;      ///< intra-group gap over mean spacing
    std::vector<std::uint32_t> sessions;
};

Workload
mixedClasses(std::uint64_t seed)
{
    Workload w;
    w.name = "mixed_classes";
    w.openLoop = true;
    w.ratePerSecond = kMixedRate;
    const std::pair<Domain, rsqp::Index> shapes[] = {
        {Domain::Control, 2},    {Domain::Control, 3},
        {Domain::Control, 4},    {Domain::Control, 5},
        {Domain::Lasso, 20},     {Domain::Lasso, 24},
        {Domain::Portfolio, 25}, {Domain::Portfolio, 30}};
    std::uint64_t k = 0;
    for (const auto& [domain, size] : shapes) {
        w.structures.push_back(
            makeStructure(domain, size, k, seed, kMixedVariants, 1e-3));
        w.sessions.push_back(rsqp::SessionConfig());
        ++k;
    }
    for (std::uint32_t s = 0; s < w.structures.size(); ++s)
        for (std::uint32_t v = 0; v < 2; ++v)
            w.warmup.push_back({s, s, v, AdmissionClass::Interactive, 0.0});
    w.service.fleet.coreCount = kFleetCores;

    // A Realtime chain is one control loop: its steps (83 ms apart at
    // 60 req/s) must outlast the slowest Realtime solve (nx=4, about
    // 40 ms on a 4-CPU x86 host) with margin. With steps closer than the solve time the
    // chain queues on its own session, and the Realtime tail then
    // measures that self-queue, which swings with host speed.
    const std::vector<Population> populations = {
        {AdmissionClass::Realtime, 0.3, 4, 1.5, {0, 1, 2, 3}},
        {AdmissionClass::Interactive, 0.3, 5, 0.5, {4, 5}},
        {AdmissionClass::Batch, 0.4, 4, 0.01, {6, 7}},
    };
    w.schedule = [populations](double seconds, double rate,
                                std::uint64_t s) {
        std::vector<RequestSpec> events;
        rsqp::Rng rng(s);
        const double total = rate * seconds;
        for (const Population& pop : populations) {
            const std::size_t groups = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::lround(pop.share * total /
                                   static_cast<double>(pop.groupSize))));
            const double count =
                static_cast<double>(groups * pop.groupSize);
            const double gap = seconds / count * pop.gapFraction;
            const double groupSpacing =
                seconds / static_cast<double>(groups);
            for (std::size_t g = 0; g < groups; ++g) {
                // Jittered group starts keep bursts from phase-locking
                // across populations; the group ends inside the window.
                const double span =
                    gap * static_cast<double>(pop.groupSize - 1);
                const double start =
                    (static_cast<double>(g) + rng.uniform() * 0.9) *
                    groupSpacing;
                const double first =
                    std::min(start, std::max(0.0, seconds - span - 1e-3));
                const std::uint32_t session =
                    pop.sessions[g % pop.sessions.size()];
                for (std::size_t r = 0; r < pop.groupSize; ++r)
                    events.push_back(
                        {session, session,
                         static_cast<std::uint32_t>(
                             rng.uniformIndex(kMixedVariants)),
                         pop.cls, first + gap * static_cast<double>(r)});
            }
        }
        std::stable_sort(events.begin(), events.end(),
                         [](const RequestSpec& a, const RequestSpec& b) {
                             return a.dueSeconds < b.dueSeconds;
                         });
        return events;
    };
    return w;
}

/** Completion hand-off from callbacks (pool threads) to the generator. */
struct Completions
{
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<unsigned> clients;  ///< closed loop: finished clients
    std::size_t done = 0;

    void
    complete(unsigned client)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            clients.push_back(client);
            ++done;
        }
        cv.notify_one();
    }
};

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "host_pcg_large", "device_churn", "mixed_classes"};
    return names;
}

Workload
makeWorkload(const std::string& name, std::uint64_t seed)
{
    if (name == "host_pcg_large")
        return hostPcgLarge(seed);
    if (name == "device_churn")
        return deviceChurn(seed);
    if (name == "mixed_classes")
        return mixedClasses(seed);
    throw std::invalid_argument("unknown workload: " + name);
}

LiveService
setUp(const Workload& workload)
{
    LiveService live;
    const Clock::time_point start = Clock::now();
    live.service = std::make_unique<rsqp::SolverService>(workload.service);
    for (const rsqp::SessionConfig& config : workload.sessions)
        live.sessions.push_back(live.service->openSession(config));
    for (const RequestSpec& spec : workload.warmup) {
        rsqp::SubmitOptions options;
        options.admissionClass = spec.cls;
        const rsqp::SessionResult result = live.service->solve(
            live.sessions[spec.session],
            workload.structures[spec.structure].request(spec.variant),
            options);
        live.warmupSolved =
            live.warmupSolved && result.status == rsqp::SolveStatus::Solved;
    }
    live.setupSeconds = secondsBetween(start, Clock::now());
    return live;
}

Window
runWindow(const Workload& workload, LiveService& live, double seconds,
          std::uint64_t seed, SpanRecorder* tracer)
{
    Window window;
    Completions sync;
    rsqp::SolverService& service = *live.service;
    std::size_t submitted = 0;

    auto submit = [&](const RequestSpec& spec, unsigned client,
                      rsqp::QpProblem problem,
                      Clock::time_point scheduled) {
        Record& rec = window.records.emplace_back();
        rec.structure = spec.structure;
        rec.variant = spec.variant;
        rec.client = client;
        rec.cls = spec.cls;
        rec.scheduled = scheduled;
        const long id = static_cast<long>(window.records.size()) - 1;
        const long root = tracer != nullptr
            ? tracer->add("service.request", scheduled, scheduled, -1, id)
            : -1;
        rsqp::SubmitOptions options;
        options.admissionClass = spec.cls;
        Record* slot = &rec;
        rec.submitted = Clock::now();
        if (workload.openLoop)
            window.lagSeconds.push_back(
                secondsBetween(scheduled, rec.submitted));
        service.submitAsync(
            live.sessions[spec.session], std::move(problem), options,
            [slot, tracer, root, id, &sync](rsqp::SessionResult r) {
                slot->completed = Clock::now();
                slot->status = r.status;
                slot->parametric = r.parametricReuse;
                slot->cacheHit = r.cacheHit;
                slot->queueWait = r.telemetry.queueWaitSeconds;
                slot->setup = r.setupSeconds;
                slot->solve = r.solveSeconds;
                slot->iterations = r.iterations;
                slot->pcgIterations = r.telemetry.pcgIterationsTotal;
                slot->x = std::move(r.x);
                slot->y = std::move(r.y);
                if (tracer != nullptr) {
                    // Program-reported parts, laid back to back ending
                    // at the callback; whatever they leave uncovered is
                    // the request's unaccounted time.
                    using D = std::chrono::duration<double>;
                    const auto at = [&](double s) {
                        return slot->completed -
                            std::chrono::duration_cast<Clock::duration>(
                                   D(s));
                    };
                    tracer->finish(root, slot->completed);
                    const double solveS = slot->solve;
                    const double setupS = slot->setup;
                    const double queueS = slot->queueWait;
                    tracer->add("service.queue_wait",
                                at(solveS + setupS + queueS),
                                at(solveS + setupS), root, id, true);
                    tracer->add("session.setup", at(solveS + setupS),
                                at(solveS), root, id, true);
                    tracer->add("session.solve", at(solveS),
                                slot->completed, root, id, true);
                }
                sync.complete(slot->client);
            });
        rec.returned = Clock::now();
        if (tracer != nullptr)
            tracer->add("service.submit", rec.submitted, rec.returned, root,
                        id);
        ++submitted;
    };

    window.before = service.stats();
    const Usage usageBefore = Usage::now();
    const Clock::time_point start = Clock::now();
    Clock::time_point lastSend = start;

    if (workload.openLoop) {
        const std::vector<RequestSpec> events =
            workload.schedule(seconds, workload.ratePerSecond, seed);
        for (const RequestSpec& spec : events) {
            rsqp::QpProblem problem =
                workload.structures[spec.structure].request(spec.variant);
            const Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(spec.dueSeconds));
            if (due - Clock::now() > std::chrono::microseconds(200))
                std::this_thread::sleep_until(due);
            {
                std::lock_guard<std::mutex> lock(sync.mutex);
                window.outstanding.push_back(submitted - sync.done);
            }
            submit(spec, 0, std::move(problem), due);
            lastSend = Clock::now();
        }
        std::unique_lock<std::mutex> lock(sync.mutex);
        sync.cv.wait(lock, [&] { return sync.done == submitted; });
    } else {
        const ClosedSource next = workload.makeSource(seed);
        const Clock::time_point end =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        const Clock::time_point hardEnd = end + (end - start);
        // Generator lateness of a closed loop: from a client's callback
        // to its next send.
        std::vector<const Record*> previous(workload.clients, nullptr);
        auto send = [&](unsigned client) {
            const RequestSpec spec = next(client);
            rsqp::QpProblem problem =
                workload.structures[spec.structure].request(spec.variant);
            const Clock::time_point now = Clock::now();
            if (previous[client] != nullptr)
                window.lagSeconds.push_back(
                    secondsBetween(previous[client]->completed, now));
            submit(spec, client, std::move(problem), now);
            previous[client] = &window.records.back();
            lastSend = now;
        };
        for (unsigned c = 0; c < workload.clients; ++c)
            send(c);
        unsigned active = workload.clients;
        while (active > 0) {
            std::vector<unsigned> finished;
            std::size_t done = 0;
            {
                std::unique_lock<std::mutex> lock(sync.mutex);
                sync.cv.wait(lock, [&] { return !sync.clients.empty(); });
                finished.swap(sync.clients);
                done = sync.done;
            }
            for (unsigned client : finished) {
                const Clock::time_point now = Clock::now();
                const bool more = now < end ||
                    (done < workload.minRequests && now < hardEnd);
                if (more)
                    send(client);
                else
                    --active;
            }
        }
    }

    Clock::time_point last = start;
    for (const Record& rec : window.records)
        last = std::max(last, rec.completed);
    window.wallSeconds = secondsBetween(start, last);
    window.sendSeconds = secondsBetween(start, lastSend);
    window.usage = Usage::now() - usageBefore;
    window.after = service.stats();
    return window;
}

} // namespace perfbench
