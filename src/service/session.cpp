#include "session.hpp"

#include <chrono>
#include <utility>

#include "common/logging.hpp"
#include "osqp/validate.hpp"

namespace rsqp
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

SolverSession::SolverSession(SessionConfig config,
                             std::shared_ptr<CustomizationCache> cache)
    : config_(std::move(config)), cache_(std::move(cache))
{}

SolverSession::~SolverSession() = default;

bool
SolverSession::sameStructure(const QpProblem& problem) const
{
    // Exact index comparison, not the fingerprint: the parametric path
    // feeds values straight into the live solver's CSC slots, so a
    // hash collision here would silently corrupt the solve.
    return problem.numVariables() == current_.numVariables() &&
           problem.numConstraints() == current_.numConstraints() &&
           problem.pUpper.colPtr() == current_.pUpper.colPtr() &&
           problem.pUpper.rowIdx() == current_.pUpper.rowIdx() &&
           problem.a.colPtr() == current_.a.colPtr() &&
           problem.a.rowIdx() == current_.a.rowIdx();
}

void
SolverSession::rebuild(const QpProblem& problem, bool cacheable,
                       SessionResult& result)
{
    if (config_.engine == SessionEngine::Host) {
        // Route through the backend factory: settings.firstOrder picks
        // ADMM (default), PDHG, or Auto, which the factory resolves
        // to one of the two here, once per structure.
        engine_ = makeBackend(problem, config_.osqp);
        return;
    }

    // A non-cacheable request neither reads nor publishes artifacts:
    // its one-off structure customizes privately and the hot working
    // set survives untouched.
    const bool useCache = cacheable && cache_ != nullptr;
    StructureFingerprint fp;
    std::shared_ptr<const CustomizationArtifact> artifact;
    if (useCache) {
        fp = fingerprintCustomization(problem, config_.custom);
        artifact = cache_->find(fp);
    }
    auto device = std::make_unique<RsqpSolver>(problem, config_.osqp,
                                               config_.custom,
                                               std::move(artifact));
    // An engine that rejected its settings customized nothing: it
    // neither counts a miss nor publishes an artifact.
    if (device->customizationReused()) {
        result.cacheHit = true;
        ++stats_.cacheHits;
    } else if (useCache && device->validation().ok()) {
        ++stats_.cacheMisses;
        cache_->insert(fp,
                       std::make_shared<CustomizationArtifact>(
                           freezeCustomization(device->customization())));
    }
    engine_ = std::move(device);
}

void
SolverSession::applyParametricUpdates(const QpProblem& problem)
{
    const bool qChanged = problem.q != current_.q;
    const bool boundsChanged =
        problem.l != current_.l || problem.u != current_.u;
    const bool pChanged =
        problem.pUpper.values() != current_.pUpper.values();
    const bool aChanged = problem.a.values() != current_.a.values();

    if (qChanged)
        engine_->updateLinearCost(problem.q);
    if (boundsChanged)
        engine_->updateBounds(problem.l, problem.u);
    if (pChanged || aChanged)
        engine_->updateMatrixValues(
            pChanged ? problem.pUpper.values() : Vector(),
            aChanged ? problem.a.values() : Vector());
}

SessionResult
SolverSession::solve(const QpProblem& problem, Real time_budget,
                     bool cacheable, WarmStartPolicy warm_start)
{
    SessionResult result;

    // Gate malformed requests before they can touch the live solver:
    // a bad request must not cost the client its warm state or its
    // parametric diff base.
    result.validation = validateProblem(problem);
    if (!result.validation.ok()) {
        ++stats_.solves;
        ++stats_.invalidRequests;
        result.status = SolveStatus::InvalidProblem;
        return result;
    }
    ++stats_.solves;

    const auto setupStart = std::chrono::steady_clock::now();
    if (engine_ != nullptr && sameStructure(problem)) {
        applyParametricUpdates(problem);
        result.parametricReuse = true;
        ++stats_.parametricSolves;
    } else {
        rebuild(problem, cacheable, result);
        ++stats_.rebuilds;
        haveWarm_ = false;  // a fresh solver means a fresh structure
    }
    current_ = problem;
    result.setupSeconds = secondsSince(setupStart);
    stats_.setupSecondsTotal += result.setupSeconds;
    const SolveRoute route =
        result.parametricReuse
            ? SolveRoute::Parametric
            : (result.cacheHit ? SolveRoute::CacheThaw
                               : SolveRoute::FullCustomize);

    const Index n = problem.numVariables();
    const Index m = problem.numConstraints();
    const bool wantWarm =
        warm_start == WarmStartPolicy::SessionDefault
            ? config_.autoWarmStart
            : warm_start == WarmStartPolicy::Apply;
    if (wantWarm && haveWarm_ &&
        lastX_.size() == static_cast<std::size_t>(n) &&
        lastY_.size() == static_cast<std::size_t>(m)) {
        if (engine_->warmStart(lastX_, lastY_)) {
            result.warmStarted = true;
            ++stats_.warmStarts;
        }
    }

    const auto solveStart = std::chrono::steady_clock::now();
    // Each request re-arms the limit so budgets never leak across
    // requests (see the file comment for who enforces it).
    engine_->setTimeLimit(time_budget > 0.0 ? time_budget
                                            : config_.osqp.timeLimit);
    OsqpResult run = engine_->solve();
    result.status = run.info.status;
    if (result.status == SolveStatus::InvalidProblem) {
        // The request was well formed, so the engine rejected its
        // settings: hand its diagnostics to the client.
        result.validation = std::move(run.validation);
        ++stats_.invalidRequests;
    }
    result.x = std::move(run.x);
    result.y = std::move(run.y);
    result.z = std::move(run.z);
    result.iterations = run.info.iterations;
    result.objective = run.info.objective;
    result.primRes = run.info.primRes;
    result.dualRes = run.info.dualRes;
    result.deviceSeconds = run.deviceSeconds;
    result.telemetry = run.info.telemetry;
    result.solveSeconds = secondsSince(solveStart);
    stats_.solveSecondsTotal += result.solveSeconds;
    result.telemetry.route = route;
    result.telemetry.setupSeconds = result.setupSeconds;
    result.telemetry.solveSeconds = result.solveSeconds;

    if (!result.x.empty() && !result.y.empty()) {
        lastX_ = result.x;
        lastY_ = result.y;
        haveWarm_ = true;
    }
    return result;
}

void
SolverSession::bindCache(std::shared_ptr<CustomizationCache> cache)
{
    cache_ = std::move(cache);
}

void
SolverSession::reset()
{
    engine_.reset();
    haveWarm_ = false;
    lastX_.clear();
    lastY_.clear();
    current_ = QpProblem();
}

} // namespace rsqp
