/**
 * @file
 * Statistics primitives used for latency metrics and workload validation.
 *
 * Sample keeps all observations for exact percentiles (traces in this
 * reproduction are small enough — tens of thousands of requests — that
 * exact percentiles are cheap and avoid quantile-sketch error in the
 * reported figures).
 */
#pragma once

#include <cstddef>
#include <vector>

namespace windserve::sim {

/**
 * A full sample of observations with exact percentile queries.
 *
 * percentile(p) uses linear interpolation between closest ranks (the same
 * definition as numpy.percentile's default), with p in [0, 100].
 */
class Sample
{
  public:
    void add(double x);
    std::size_t count() const { return xs_.size(); }
    bool empty() const { return xs_.empty(); }
    double mean() const;
    double min() const;
    double max() const;
    /** Exact percentile; p in [0,100]. Returns 0 on an empty sample. */
    double percentile(double p) const;
    double median() const { return percentile(50.0); }
    double p50() const { return percentile(50.0); }
    double p90() const { return percentile(90.0); }
    double p99() const { return percentile(99.0); }
    /** Fraction of observations <= threshold (e.g. SLO attainment). */
    double fraction_below(double threshold) const;
    const std::vector<double> &values() const { return xs_; }
    void merge(const Sample &other);

  private:
    void ensure_sorted() const;

    mutable std::vector<double> xs_;
    mutable bool sorted_ = true;
};

} // namespace windserve::sim
