#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now())
{
}

int
Tracer::begin(const char *name, int parent, int pass)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = parent;
    span.pass = pass;
    span.start = secondsSince(epoch_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    const double now = secondsSince(epoch_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &span : spans)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)]
                .emplace_back(span.start, span.end);

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0;
        double reach = span.start;
        for (auto [start, end] : kids) {
            start = std::max(start, reach);
            end = std::min(end, span.end);
            if (end > start) {
                covered += end - start;
                reach = end;
            }
        }
        self[i] = std::max(0.0, span.seconds() - covered);
    }
    return self;
}

std::vector<double>
durations(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &span : spans)
        if (name == span.name)
            out.push_back(span.seconds());
    return out;
}

double
totalSeconds(const std::vector<Span> &spans, const std::string &name)
{
    double total = 0;
    for (const double seconds : durations(spans, name))
        total += seconds;
    return total;
}

std::string
spansJson(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::string out = "{\"schema\": \"perfbench-spans-v1\", \"spans\": [";
    char line[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        std::snprintf(line, sizeof line,
                      "%s\n  {\"id\": %zu, \"name\": \"%s\", "
                      "\"start\": %.9f, \"end\": %.9f, "
                      "\"self\": %.9f, \"parent\": %d, \"pass\": %d}",
                      i == 0 ? "" : ",", i, span.name, span.start,
                      span.end, self[i], span.parent, span.pass);
        out += line;
    }
    out += "\n]}\n";
    return out;
}

} // namespace perfbench
