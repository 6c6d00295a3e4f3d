/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans wrap the driver's calls into the simulator's public entry
 * points (trace generation, the cache filter, placement builds,
 * simulation passes, service admission and runs). Each span carries
 * its name, host start/end seconds, parent span and pass id. Parents
 * are passed explicitly because a pass runs on a pool worker, not on
 * the thread that opened the enclosing phase.
 *
 * A disabled tracer records nothing: begin() returns -1 and end(-1)
 * is a no-op, so the untraced run pays one branch per call site.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
double secondsSince(Clock::time_point start);

/** One recorded call. */
struct Span
{
    const char *name = "";
    double start = 0;
    double end = 0;
    int parent = -1;
    int pass = -1;

    double seconds() const { return end - start; }
};

class Tracer
{
  public:
    explicit Tracer(bool enabled = false);

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (-1 when disabled). */
    int begin(const char *name, int parent = -1, int pass = -1);

    /** Close a span opened by begin(). */
    void end(int id);

    /** Snapshot of every span recorded since the last clear(). */
    std::vector<Span> spans() const;

    void clear();

  private:
    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name, int parent = -1,
              int pass = -1)
        : tracer_(tracer), id_(tracer.begin(name, parent, pass))
    {
    }
    ~SpanScope() { tracer_.end(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

/**
 * Self time of every span: its duration minus the union of its
 * children's intervals clipped to it. Children that overlap (passes
 * running concurrently on pool workers) are covered once, so self
 * time is never negative.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Durations of every span with this name, in record order. */
std::vector<double> durations(const std::vector<Span> &spans,
                              const std::string &name);

/** Sum of durations(spans, name). */
double totalSeconds(const std::vector<Span> &spans,
                    const std::string &name);

/** The spans as one JSON document with per-span self time. */
std::string spansJson(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
