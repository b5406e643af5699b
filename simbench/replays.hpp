/**
 * @file
 * Outside-in replays of single layers, driven by the workload's own
 * generated trace. Only the calls into the layer are timed.
 *
 *  - kvcache::BlockManager: allocate on prompt, grow once per decode
 *    step over a continuous batch, release on finish;
 *  - core::CrossPodBalancer: route every request over 128 pods and
 *    release it once a bounded number of later requests is in flight;
 *  - engine::ExecutionSampler: prefill per prompt and decode with the
 *    (batch, context sum) shapes of the BlockManager replay's steps.
 *
 * Each replay runs several times; the per-call figures are medians.
 * Counts are a pure function of the trace.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "harness/configs.hpp"
#include "workload/request.hpp"

namespace simbench {

struct LayerReplays {
    std::uint64_t grow_calls = 0; ///< BlockManager::grow calls per replay
    double grow_ns = 0.0;         ///< wall ns per grow call
    double route_ns = 0.0;        ///< wall ns per CrossPodBalancer::route
    double sampler_ns = 0.0;      ///< wall ns per prefill/decode sample
};

/** Run the three replays on @p trace. Throws std::logic_error when a
 *  layer misbehaves (a failed grow, leaked blocks, a non-finite
 *  duration). */
LayerReplays layer_replays(const windserve::harness::Scenario &sc,
                           const std::vector<windserve::workload::Request> &trace,
                           std::uint64_t seed);

} // namespace simbench
