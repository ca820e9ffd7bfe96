#include "common/stats.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace sc {

Histogram::Histogram(std::uint64_t bucket_width, std::size_t n_buckets)
    : bucketWidth_(bucket_width), buckets_(n_buckets + 1, 0)
{
    if (bucket_width == 0)
        panic("Histogram bucket width must be positive");
}

void
Histogram::sample(std::uint64_t value)
{
    std::size_t idx = value / bucketWidth_;
    if (idx >= buckets_.size())
        idx = buckets_.size() - 1; // overflow bucket
    ++buckets_[idx];
    ++samples_;
    sum_ += value;
    max_ = std::max(max_, value);
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    samples_ = sum_ = max_ = 0;
}

double
Histogram::mean() const
{
    return samples_ ? static_cast<double>(sum_) / samples_ : 0.0;
}

std::uint64_t
Histogram::percentile(double q) const
{
    if (samples_ == 0)
        return 0;
    std::uint64_t target =
        static_cast<std::uint64_t>(q * static_cast<double>(samples_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen > target)
            return i * bucketWidth_;
    }
    return (buckets_.size() - 1) * bucketWidth_;
}

double
Histogram::cdfAt(std::uint64_t value) const
{
    if (samples_ == 0)
        return 0.0;
    std::size_t limit = std::min(value / bucketWidth_ + 1,
                                 static_cast<std::uint64_t>(
                                     buckets_.size()));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < limit; ++i)
        seen += buckets_[i];
    return static_cast<double>(seen) / static_cast<double>(samples_);
}

Counter &
StatSet::counter(const std::string &key)
{
    return counters_[key];
}

std::uint64_t
StatSet::get(const std::string &key) const
{
    auto it = counters_.find(key);
    return it == counters_.end() ? 0 : it->second.value();
}

void
StatSet::reset()
{
    for (auto &entry : counters_)
        entry.second.reset();
}

std::string
StatSet::dump() const
{
    std::ostringstream os;
    for (const auto &entry : counters_) {
        os << (name_.empty() ? "" : name_ + ".") << entry.first
           << " = " << entry.second.value() << '\n';
    }
    return os.str();
}

} // namespace sc
