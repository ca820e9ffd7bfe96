/**
 * @file
 * Lightweight statistics package: named counters, scalar stats and
 * histograms grouped into StatSets, loosely modeled on gem5's stats.
 */

#ifndef SPARSECORE_COMMON_STATS_HH
#define SPARSECORE_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sc {

/** A monotonically increasing named counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }
    Counter &operator++() { ++value_; return *this; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A fixed-bucket histogram over non-negative sample values, used for
 * the stream-length distributions of Fig. 14.
 */
class Histogram
{
  public:
    /** @param bucket_width width of each bucket; @param n_buckets
     *  number of buckets before the overflow bucket. */
    explicit Histogram(std::uint64_t bucket_width = 1,
                       std::size_t n_buckets = 512);

    void sample(std::uint64_t value);
    void reset();

    std::uint64_t samples() const { return samples_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t maxValue() const { return max_; }
    double mean() const;

    /** Value v such that fraction q of samples are <= v. */
    std::uint64_t percentile(double q) const;

    /** Cumulative distribution: fraction of samples <= value. */
    double cdfAt(std::uint64_t value) const;

    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t bucketWidth() const { return bucketWidth_; }

  private:
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t samples_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * A named group of counters, resolved lazily by name. Components own a
 * StatSet and expose it for reporting.
 */
class StatSet
{
  public:
    explicit StatSet(std::string name = "") : name_(std::move(name)) {}

    /** Get-or-create a counter. */
    Counter &counter(const std::string &key);
    /** Read a counter (0 when absent). */
    std::uint64_t get(const std::string &key) const;
    void reset();

    const std::string &name() const { return name_; }
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

    /** Render "name.key = value" lines. */
    std::string dump() const;

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
};

} // namespace sc

#endif // SPARSECORE_COMMON_STATS_HH
