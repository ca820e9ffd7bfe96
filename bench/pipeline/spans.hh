/**
 * @file
 * In-memory span log for the traced pipeline run. A span records a
 * name, start, end, parent and job id; a span's self time is its
 * duration minus the time its child spans cover. The log is written
 * out once, in Chrome trace format, when the run ends.
 *
 * Single-threaded by design: the traced run executes its jobs one at
 * a time on the main thread, so spans nest strictly.
 */

#ifndef SPARSECORE_BENCH_PIPELINE_SPANS_HH
#define SPARSECORE_BENCH_PIPELINE_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probes.hh"

namespace sc::pipeline {

class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Open a span under the innermost open one; returns its index. */
    std::size_t open(std::string name, std::uint64_t job);
    /** Close the innermost open span (must be `index`). */
    void close(std::size_t index);

    /** Summed self time of every span with this name. */
    double self(const std::string &name) const;
    /** Duration of a closed span. */
    double duration(std::size_t index) const;

    /** Write every span as a Chrome trace ("X" complete events);
     *  returns false when the file cannot be written. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        std::uint64_t job = 0;
        double start = 0, end = 0; ///< seconds since origin_
        double childSeconds = 0;
        std::size_t parent = kNoParent;
    };
    static constexpr std::size_t kNoParent = ~std::size_t{0};

    double now() const { return secondsSince(origin_); }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
    std::map<std::string, double> self_;
};

/** RAII span: open on construction, close on scope exit. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name, std::uint64_t job)
        : log_(log), index_(log.open(std::move(name), job))
    {
    }
    ~ScopedSpan() { log_.close(index_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::size_t index() const { return index_; }

  private:
    SpanLog &log_;
    std::size_t index_;
};

} // namespace sc::pipeline

#endif // SPARSECORE_BENCH_PIPELINE_SPANS_HH
