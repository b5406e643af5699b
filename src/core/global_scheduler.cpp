#include "core/global_scheduler.hpp"

namespace windserve::core {

void
GlobalScheduler::calibrate(const model::CostModel &prefill_cost,
                           const model::CostModel &decode_cost,
                           double ttft_slo, double tpot_slo, sim::Rng &rng,
                           double noise_sigma)
{
    prefill_profiler_.calibrate_offline(prefill_cost, rng, noise_sigma);
    coordinator_.compute_budget(decode_cost, ttft_slo, tpot_slo);
}

} // namespace windserve::core
