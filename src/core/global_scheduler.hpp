/**
 * @file
 * The Global Scheduler (paper §3.2) = Profiler + Coordinator.
 *
 * Monitors compute and memory usage of both instances and orchestrates
 * cross-phase jobs. Thin aggregate: the prefill instance's Profiler
 * supplies Eq. (1) completion predictions, the Coordinator applies
 * Algorithm 1 (Dynamic Prefill Dispatch) and the Dynamic Rescheduling
 * trigger.
 */
#pragma once

#include "core/coordinator.hpp"
#include "core/profiler.hpp"

namespace windserve::core {

/** The prefill instance's Profiler plus the coordinating policy
 *  engine. */
class GlobalScheduler
{
  public:
    explicit GlobalScheduler(CoordinatorConfig cfg)
        : coordinator_(cfg, prefill_profiler_)
    {}

    /**
     * Offline calibration of the prefill Profiler, and assist-budget
     * derivation from the SLOs over the decode instance's cost model.
     */
    void calibrate(const model::CostModel &prefill_cost,
                   const model::CostModel &decode_cost, double ttft_slo,
                   double tpot_slo, sim::Rng &rng, double noise_sigma);

    Profiler &prefill_profiler() { return prefill_profiler_; }
    Coordinator &coordinator() { return coordinator_; }
    const Coordinator &coordinator() const { return coordinator_; }

    /** Bind the owning system's simulator for timestamped diagnostics. */
    void bind_clock(const sim::Simulator *clock)
    {
        coordinator_.bind_clock(clock);
    }

  private:
    Profiler prefill_profiler_;
    Coordinator coordinator_;
};

} // namespace windserve::core
