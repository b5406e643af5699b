/**
 * @file
 * Iteration-duration sampling: CostModel times plus execution jitter.
 *
 * Real iteration times vary with kernel scheduling, NCCL timing and the
 * Python control plane; the WindServe Profiler regresses Eq. (1) over
 * such noisy prefill passes (paper §3.2.1). ExecutionSampler injects
 * multiplicative lognormal jitter so the reproduction's Profiler faces
 * the same estimation problem the paper's does.
 */
#pragma once

#include "model/cost_model.hpp"
#include "simcore/rng.hpp"

namespace windserve::engine {

/** Samples noisy iteration durations from the analytic cost model. */
class ExecutionSampler
{
  public:
    /**
     * @param cost  ground-truth cost model of the instance
     * @param rng   jitter source (forked from the experiment Rng)
     * @param noise_sigma sigma of the lognormal multiplicative jitter
     */
    ExecutionSampler(model::CostModel cost, sim::Rng rng,
                     double noise_sigma = 0.03)
        : cost_(std::move(cost)), rng_(std::move(rng)),
          noise_sigma_(noise_sigma)
    {}

    const model::CostModel &cost() const { return cost_; }

    /** Noisy duration of a full prefill pass over @p n tokens. */
    double prefill(double n);

    /** Noisy duration of a decode iteration. */
    double decode(double batch, double sum_context);

    /** Noisy duration of a regular hybrid pass. */
    double hybrid(double n_prefill, double batch, double sum_context);

    /** Noisy SBD prefill-stream duration. */
    double sbd_prefill(double n);

    /** Noisy SBD decode iteration duration. */
    double sbd_decode(double batch, double sum_context);

    /** Noisy chunked-prefill piggyback iteration duration. */
    double chunked(double chunk, double prefix, double batch,
                   double sum_context);

  private:
    double jitter();

    model::CostModel cost_;
    sim::Rng rng_;
    double noise_sigma_;
};

} // namespace windserve::engine
