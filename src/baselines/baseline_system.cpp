#include "baselines/baseline_system.hpp"

#include <stdexcept>

#include "fault/fault_injector.hpp"

namespace windserve::baselines {

using workload::Request;
using workload::RequestState;

BaselineSystem::BaselineSystem(DistServeConfig cfg) : name_("DistServe")
{
    if (cfg.num_replicas == 0)
        throw std::invalid_argument(
            "DistServeConfig: num_replicas must be >= 1, got 0");

    hw::Topology topo(cfg.topology);
    sim::Rng seed_rng(cfg.seed);
    hw::PdPlacement placement = hw::default_pd_placement(
        topo, cfg.prefill_parallelism.num_gpus(),
        cfg.decode_parallelism.num_gpus());
    num_gpus_ = cfg.num_replicas * (cfg.prefill_parallelism.num_gpus() +
                                    cfg.decode_parallelism.num_gpus());

    model::CostModel prefill_cost(cfg.model, topo.gpu(0),
                                  cfg.prefill_parallelism, cfg.cost_params);
    model::CostModel decode_cost(cfg.model, topo.gpu(0),
                                 cfg.decode_parallelism, cfg.cost_params);
    hw::Link pd_link = topo.best_link(placement.prefill, placement.decode);

    // Replicas share one node-local placement: each models its own PD
    // pair on its own node, so link geometry is identical per pair. A
    // single replica keeps the unprefixed names ("distserve/prefill",
    // "kv/p2d").
    pairs_.resize(cfg.num_replicas);
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
        const std::string prefix =
            pairs_.size() > 1 ? "distserve/r" + std::to_string(i) + "/"
                              : "distserve/";
        transfer::InstancePair &p = pairs_[i];
        p.prefill = std::make_unique<engine::Instance>(
            sim_,
            engine::instance_config(cfg, prefix + "prefill",
                                    engine::InstanceRole::Prefill),
            prefill_cost, seed_rng.fork(),
            topo.host_link(placement.prefill.front()));
        p.decode = std::make_unique<engine::Instance>(
            sim_,
            engine::instance_config(cfg, prefix + "decode",
                                    engine::InstanceRole::Decode),
            decode_cost, seed_rng.fork(),
            topo.host_link(placement.decode.front()));

        // DistServe's copy is synchronous by definition.
        transfer::KvTransferConfig xcfg;
        if (pairs_.size() > 1)
            xcfg.name_prefix = prefix;
        p.xfer = std::make_unique<transfer::KvTransferManager>(
            sim_, pd_link, cfg.model, xcfg);
    }
    wire();
}

BaselineSystem::BaselineSystem(VllmConfig cfg) : name_("vLLM")
{
    if (cfg.num_engines == 0)
        throw std::invalid_argument(
            "VllmConfig: num_engines must be >= 1, got 0");

    hw::Topology topo(cfg.topology);
    const std::size_t gpus_per_engine = cfg.engine_parallelism.num_gpus();
    num_gpus_ = cfg.num_engines * gpus_per_engine;
    if (num_gpus_ > topo.num_gpus())
        throw std::invalid_argument(
            "VllmConfig: num_engines x engine GPUs = " +
            std::to_string(num_gpus_) + " exceeds the topology's " +
            std::to_string(topo.num_gpus()) + " GPUs");

    sim::Rng seed_rng(cfg.seed);
    model::CostModel cost(cfg.model, topo.gpu(0), cfg.engine_parallelism,
                          cfg.cost_params);

    pairs_.resize(cfg.num_engines);
    for (std::size_t e = 0; e < pairs_.size(); ++e) {
        engine::InstanceConfig icfg = engine::instance_config(
            cfg, "vllm/engine" + std::to_string(e),
            engine::InstanceRole::Colocated);
        icfg.chunk_size = cfg.chunk_size;
        icfg.chunked_prefill = true;
        pairs_[e].prefill = std::make_unique<engine::Instance>(
            sim_, icfg, cost, seed_rng.fork(),
            topo.host_link(e * gpus_per_engine));
    }
    wire();
}

void
BaselineSystem::wire()
{
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
        pairs_[i].prefill->callbacks.on_prefill_complete =
            [this, i](Request *r) { on_prefill_complete(i, r); };
        pairs_[i].on_landed = [this](Request *r) { note_decode_ready(r); };
    }
}

void
BaselineSystem::on_arrival(Request *r)
{
    const auto slot = static_cast<std::size_t>(r - requests_.data());
    pairs_[slot % pairs_.size()].prefill->enqueue_prefill(r);
}

void
BaselineSystem::note_decode_ready(Request *r)
{
    if (faults())
        faults()->note_decode_ready(r);
}

void
BaselineSystem::on_prefill_complete(std::size_t i, Request *r)
{
    transfer::InstancePair &p = pairs_[i];
    if (r->output_tokens <= 1) {
        r->finish_time = sim_.now();
        audit::transition(audit(), *r, RequestState::Finished);
        p.prefill->release_kv(r);
        note_decode_ready(r);
        return;
    }
    // DistServe: the request only becomes eligible for decode admission
    // after the full KV copy lands. vLLM: it decodes where it
    // prefilled.
    p.hand_off(r);
}

void
BaselineSystem::attach(const engine::Attachments &at)
{
    for (transfer::InstancePair &p : pairs_)
        p.attach(at);
    if (!at.faults)
        return;
    // A victim restarts from scratch on its home replica's prefill
    // instance, probing round-robin from there for a live one.
    at.faults->set_redispatch([this](Request *r) {
        r->prefilled = 0;
        r->generated = 0;
        const std::size_t n = pairs_.size();
        const std::size_t home = static_cast<std::size_t>(r->id) % n;
        for (std::size_t k = 0; k < n; ++k) {
            engine::Instance &inst = *pairs_[(home + k) % n].prefill;
            if (!inst.is_down()) {
                inst.enqueue_prefill(r);
                return;
            }
        }
        // Everything is down: queue on the home replica; it resumes the
        // request after its repair.
        pairs_[home].prefill->enqueue_prefill(r);
    });
    at.faults->set_crash_hook(
        [this](engine::Instance &inst, std::vector<Request *> &victims) {
            for (transfer::InstancePair &p : pairs_)
                if (&inst == p.prefill.get())
                    p.sweep(victims);
        });
}

} // namespace windserve::baselines
