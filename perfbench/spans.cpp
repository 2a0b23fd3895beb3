#include "spans.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench
{

long
SpanRecorder::add(std::string name, Clock::time_point start,
                  Clock::time_point end, long parent, long request,
                  bool reported)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(
        Span{std::move(name), start, end, parent, request, reported});
    return static_cast<long>(spans_.size()) - 1;
}

void
SpanRecorder::finish(long index, Clock::time_point end)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end = end;
}

std::vector<double>
SpanRecorder::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)]
                .push_back(i);

    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        // Union of the children's intervals clipped to the parent, so
        // overlapping children are not subtracted twice.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
        for (std::size_t c : children[i])
            cover.emplace_back(std::max(spans_[c].start, span.start),
                               std::min(spans_[c].end, span.end));
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        Clock::time_point reach = span.start;
        for (const auto& [s, e] : cover) {
            const Clock::time_point from = std::max(s, reach);
            if (e > from) {
                covered += secondsBetween(from, e);
                reach = e;
            }
        }
        self[i] = secondsBetween(span.start, span.end) - covered;
    }
    return self;
}

std::map<std::string, double>
SpanRecorder::selfSecondsByName() const
{
    const std::vector<double> self = selfSeconds();
    std::map<std::string, double> byName;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i)
        byName[spans_[i].name] += self[i];
    return byName;
}

bool
SpanRecorder::write(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        return false;
    const Clock::time_point origin =
        spans_.empty() ? Clock::time_point() : spans_.front().start;
    for (const Span& span : spans_)
        out << "{\"name\":\"" << span.name << "\",\"start_us\":"
            << secondsBetween(origin, span.start) * 1e6
            << ",\"end_us\":" << secondsBetween(origin, span.end) * 1e6
            << ",\"parent\":" << span.parent
            << ",\"request\":" << span.request << ",\"reported\":"
            << (span.reported ? "true" : "false") << "}\n";
    out.flush();
    return static_cast<bool>(out);
}

} // namespace perfbench
