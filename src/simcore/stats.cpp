#include "simcore/stats.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace windserve::sim {

void
Sample::add(double x)
{
    xs_.push_back(x);
    sorted_ = xs_.size() <= 1;
}

void
Sample::ensure_sorted() const
{
    if (!sorted_) {
        std::sort(xs_.begin(), xs_.end());
        sorted_ = true;
    }
}

double
Sample::mean() const
{
    if (xs_.empty())
        return 0.0;
    return std::accumulate(xs_.begin(), xs_.end(), 0.0) /
           static_cast<double>(xs_.size());
}

double
Sample::min() const
{
    ensure_sorted();
    return xs_.empty() ? 0.0 : xs_.front();
}

double
Sample::max() const
{
    ensure_sorted();
    return xs_.empty() ? 0.0 : xs_.back();
}

double
Sample::percentile(double p) const
{
    if (xs_.empty())
        return 0.0;
    if (p < 0.0 || p > 100.0)
        throw std::invalid_argument("percentile: p must be in [0,100]");
    ensure_sorted();
    if (xs_.size() == 1)
        return xs_[0];
    double rank = p / 100.0 * static_cast<double>(xs_.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, xs_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return xs_[lo] + frac * (xs_[hi] - xs_[lo]);
}

double
Sample::fraction_below(double threshold) const
{
    if (xs_.empty())
        return 0.0;
    ensure_sorted();
    auto it = std::upper_bound(xs_.begin(), xs_.end(), threshold);
    return static_cast<double>(it - xs_.begin()) /
           static_cast<double>(xs_.size());
}

void
Sample::merge(const Sample &o)
{
    xs_.insert(xs_.end(), o.xs_.begin(), o.xs_.end());
    sorted_ = xs_.size() <= 1;
}

} // namespace windserve::sim
