#include "replays.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "core/pod_balancer.hpp"
#include "engine/execution.hpp"
#include "hw/topology.hpp"
#include "kvcache/block_manager.hpp"
#include "model/cost_model.hpp"
#include "workloads.hpp"

namespace simbench {

using windserve::workload::Request;

namespace {

constexpr std::size_t kBatch = 64;          ///< continuous decode batch
constexpr std::size_t kKvRequests = 4096;   ///< trace prefix replayed
constexpr std::size_t kPods = 128;          ///< balancer width
constexpr std::size_t kInflightPerPod = 8;  ///< routed, not yet released
constexpr std::size_t kRouteChunk = 64;     ///< routes per timed loop
constexpr int kRepeats = 5;

/** One decode step of the continuous batch. */
struct Step {
    double batch;
    double sum_context;
};

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Seconds spent inside BlockManager::grow over the whole replay. */
double
kv_replay(const std::vector<Request> &reqs, std::vector<Step> &steps,
          std::uint64_t &grow_calls)
{
    constexpr std::size_t kBlock = 16;
    std::size_t max_ctx = 0;
    for (const Request &r : reqs)
        max_ctx = std::max(max_ctx, r.final_context() + 1);
    // Capacity for a full batch of the longest request: grow never fails.
    windserve::kvcache::BlockManager bm(kBatch * (max_ctx / kBlock + 1),
                                        kBlock);

    struct Slot {
        windserve::kvcache::ReqId id;
        std::size_t context;
        std::size_t left;
    };
    std::vector<Slot> active;
    active.reserve(kBatch);
    steps.clear();
    grow_calls = 0;
    double grow_s = 0.0;
    bool grow_failed = false;
    std::size_t next = 0;
    while (next < reqs.size() || !active.empty()) {
        while (active.size() < kBatch && next < reqs.size()) {
            const Request &r = reqs[next++];
            if (!bm.allocate(r.id, r.prompt_tokens))
                throw std::logic_error("kv replay: allocate refused");
            active.push_back({r.id, r.prompt_tokens,
                              std::max<std::size_t>(1, r.output_tokens)});
        }
        double sum_context = 0.0;
        auto t0 = Clock::now();
        for (Slot &s : active) {
            grow_failed |= !bm.grow(s.id, ++s.context);
            --s.left;
        }
        grow_s += seconds_since(t0);
        grow_calls += active.size();
        for (const Slot &s : active)
            sum_context += static_cast<double>(s.context);
        steps.push_back({static_cast<double>(active.size()), sum_context});
        for (std::size_t i = 0; i < active.size();) {
            if (active[i].left == 0) {
                bm.release(active[i].id);
                active[i] = active.back();
                active.pop_back();
            } else {
                ++i;
            }
        }
    }
    if (grow_failed)
        throw std::logic_error("kv replay: grow refused within capacity");
    if (bm.used_blocks() != 0 || bm.num_holders() != 0)
        throw std::logic_error("kv replay: blocks leaked after release");
    return grow_s;
}

/** Seconds spent inside CrossPodBalancer::route over the whole trace. */
double
balancer_replay(const std::vector<Request> &trace, std::uint64_t &routes)
{
    windserve::core::CrossPodBalancer bal(kPods);
    const std::vector<bool> live(kPods, true);
    std::deque<std::pair<std::size_t, double>> inflight;
    std::size_t picked[kRouteChunk];
    double route_s = 0.0;
    routes = 0;
    for (std::size_t i = 0; i < trace.size(); i += kRouteChunk) {
        std::size_t n = std::min(kRouteChunk, trace.size() - i);
        auto t0 = Clock::now();
        for (std::size_t j = 0; j < n; ++j) {
            const Request &r = trace[i + j];
            picked[j] = bal.route(
                static_cast<double>(r.prompt_tokens + r.output_tokens), &live);
        }
        route_s += seconds_since(t0);
        routes += n;
        for (std::size_t j = 0; j < n; ++j) {
            const Request &r = trace[i + j];
            inflight.emplace_back(
                picked[j],
                static_cast<double>(r.prompt_tokens + r.output_tokens));
        }
        while (inflight.size() > kPods * kInflightPerPod) {
            bal.release(inflight.front().first, inflight.front().second);
            inflight.pop_front();
        }
    }
    if (bal.routed() != routes)
        throw std::logic_error("balancer replay: routed count mismatch");
    return route_s;
}

/** Seconds spent inside ExecutionSampler::prefill/decode. */
double
sampler_replay(const windserve::harness::Scenario &sc,
               const std::vector<Request> &reqs,
               const std::vector<Step> &steps, std::uint64_t seed,
               std::uint64_t &calls)
{
    using windserve::engine::ExecutionSampler;
    windserve::hw::Topology topo(sc.topology);
    ExecutionSampler prefill(
        windserve::model::CostModel(sc.model, topo.gpu(0),
                                    sc.prefill_parallelism),
        windserve::sim::Rng(seed));
    ExecutionSampler decode(
        windserve::model::CostModel(sc.model, topo.gpu(0),
                                    sc.decode_parallelism),
        windserve::sim::Rng(seed ^ 0x5eedULL));
    double sink = 0.0;
    auto t0 = Clock::now();
    for (const Request &r : reqs)
        sink += prefill.prefill(static_cast<double>(r.prompt_tokens));
    for (const Step &s : steps)
        sink += decode.decode(s.batch, s.sum_context);
    double sampler_s = seconds_since(t0);
    if (!std::isfinite(sink) || sink <= 0.0)
        throw std::logic_error("sampler replay: non-positive durations");
    calls = reqs.size() + steps.size();
    return sampler_s;
}

} // namespace

LayerReplays
layer_replays(const windserve::harness::Scenario &sc,
              const std::vector<Request> &trace, std::uint64_t seed)
{
    std::vector<Request> prefix(
        trace.begin(),
        trace.begin() + static_cast<std::ptrdiff_t>(
                            std::min(kKvRequests, trace.size())));
    LayerReplays out;
    std::vector<Step> steps;
    std::vector<double> grow, route, sampler;
    std::uint64_t routes = 0, samples = 0;
    for (int i = 0; i < kRepeats; ++i) {
        double g = kv_replay(prefix, steps, out.grow_calls);
        grow.push_back(g * 1e9 / static_cast<double>(out.grow_calls));
        double r = balancer_replay(trace, routes);
        route.push_back(r * 1e9 / static_cast<double>(routes));
        double s = sampler_replay(sc, prefix, steps, seed, samples);
        sampler.push_back(s * 1e9 / static_cast<double>(samples));
    }
    out.grow_ns = median(grow);
    out.route_ns = median(route);
    out.sampler_ns = median(sampler);
    return out;
}

} // namespace simbench
