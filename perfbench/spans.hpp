/**
 * @file
 * In-memory span recorder of the traced run. Spans are recorded in the
 * benchmark's own code around calls into the library's public
 * functions (name, start, end, parent span, request id), kept in
 * memory, and written out as JSON lines when the run ends.
 *
 * A span name is "<layer>.<what>"; the layer is the text before the
 * first dot. A span's self time is its duration minus the part of its
 * interval covered by its children.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench
{

struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    long parent = -1;     ///< index of the parent span, -1 for a root
    long request = -1;    ///< request id, -1 outside a request
    bool reported = false;  ///< interval taken from program telemetry
};

class SpanRecorder
{
  public:
    /** Record a finished span; returns its index. Thread-safe. */
    long add(std::string name, Clock::time_point start,
             Clock::time_point end, long parent = -1, long request = -1,
             bool reported = false);

    /** Set the end of a span recorded open (end == start). */
    void finish(long index, Clock::time_point end);

    /** Self time of every span, in recording order. */
    std::vector<double> selfSeconds() const;

    /** Summed self time per span name. */
    std::map<std::string, double> selfSecondsByName() const;

    /** Write all spans as JSON lines; returns false on I/O failure. */
    bool write(const std::string& path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Time a callable, record it as a span and return its duration (s). */
template <typename F>
double
timed(SpanRecorder& rec, const char* name, long parent, F&& fn)
{
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    rec.add(name, start, end, parent);
    return secondsBetween(start, end);
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
