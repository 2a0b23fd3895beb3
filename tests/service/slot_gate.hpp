/**
 * @file
 * SlotGate: a test helper that holds one service run slot until
 * release(), so a backlog can form in a fully observable state.
 */

#ifndef RSQP_TESTS_SERVICE_SLOT_GATE_HPP
#define RSQP_TESTS_SERVICE_SLOT_GATE_HPP

#include <future>

#include "service/service.hpp"

namespace rsqp::test
{

/**
 * Freezes a run slot deterministically: submits one head request
 * whose completion callback blocks the worker until release().
 * Per-entry callbacks run before the stream releases its core slot,
 * so nothing else can dispatch on that slot while the gate is held —
 * every request submitted in between sits in a queue in a fully
 * observable state.
 */
class SlotGate
{
  public:
    SlotGate(SolverService& service, SessionId id, const QpProblem& qp)
    {
        // The callback keeps its own handle on the release state: the
        // gate may be destroyed right after release(), before the
        // worker reaches its wait.
        std::shared_future<void> unblock = released_.get_future().share();
        service.submitAsync(id, qp, SubmitOptions{},
                            [this, unblock](SessionResult result) {
                                status_ = result.status;
                                started_.set_value();
                                unblock.wait();
                            });
        started_.get_future().wait();
    }

    ~SlotGate() { release(); }

    void
    release()
    {
        if (!released)
            released_.set_value();
        released = true;
    }

    /** Status of the head request (it has run once the gate exists). */
    SolveStatus status() const { return status_; }

  private:
    std::promise<void> started_;
    std::promise<void> released_;
    bool released = false;
    SolveStatus status_ = SolveStatus::Unsolved;
};

} // namespace rsqp::test

#endif // RSQP_TESTS_SERVICE_SLOT_GATE_HPP
