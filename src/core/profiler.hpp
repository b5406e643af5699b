/**
 * @file
 * The Global Scheduler's Profiler (paper §3.2.1).
 *
 * Characterises the prefill instance's compute capability by fitting
 * the paper's Eq. (1):
 *
 *     T_prefill(N) = a_p N + b_p N^2 + c_p
 *
 * via least squares over observed (tokens, duration) samples. The
 * paper obtains the parameters "by profiling and quadratic regression
 * before runtime"; calibrate_offline() reproduces that step by sweeping
 * probe sizes through the instance cost model with execution noise, and
 * the fit keeps refining online from real prefill passes. Algorithm 1
 * reads the fit through predict_ttft(). Eq. (2), the decode iteration
 * time, needs no regression here: the Coordinator's assist budget reads
 * it straight from the ground-truth cost model.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "model/cost_model.hpp"
#include "simcore/rng.hpp"

namespace windserve::core {

/** Quadratic-regression fit of Eq. (1). */
struct PrefillFit {
    double a = 0.0, b = 0.0, c = 0.0;
    double predict(double n) const { return a * n + b * n * n + c; }
};

/**
 * Least-squares fit of y = a x + b x^2 + c over samples.
 * Requires at least 3 samples with distinct x.
 */
PrefillFit fit_quadratic(const std::vector<double> &x,
                         const std::vector<double> &y);

/** Prefill performance model maintained by the Global Scheduler. */
class Profiler
{
  public:
    Profiler() = default;

    /**
     * Offline profiling pass: probe the instance at a grid of prefill
     * sizes through its (noisy) cost model and fit.
     */
    void calibrate_offline(const model::CostModel &cost, sim::Rng &rng,
                           double noise_sigma = 0.03,
                           std::size_t samples_per_probe = 3);

    /** Online observation of a pure prefill pass. */
    void observe_prefill(double n_tokens, double duration);

    /** Predicted prefill latency for @p n_tokens (Eq. 1). */
    double predict_prefill(double n_tokens) const;

    /**
     * Algorithm 1 line 1: predicted completion time of a new request's
     * prefill given the queued tokens ahead of it and the remaining time
     * of the in-flight batch.
     */
    double predict_ttft(double queued_tokens, double new_tokens,
                        double inflight_remaining) const;

    std::size_t prefill_samples() const { return px_.size(); }

  private:
    /** Refit from all accumulated samples every this many observations. */
    static constexpr std::size_t kRefitInterval = 64;
    /** Cap sample memory; oldest samples are discarded. */
    static constexpr std::size_t kMaxSamples = 4096;

    std::vector<double> px_, py_; ///< prefill samples (N, T)
    PrefillFit prefill_fit_;
    bool fitted_ = false;
    std::size_t since_refit_ = 0;
};

} // namespace windserve::core
