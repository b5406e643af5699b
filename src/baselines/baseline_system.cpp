#include "baselines/baseline_system.hpp"

#include <stdexcept>

#include "fault/fault_injector.hpp"

namespace windserve::baselines {

using workload::Request;
using workload::RequestState;

namespace {

/** An instance of @p cfg with the knobs both baseline configs share. */
template <typename Config>
engine::InstanceConfig
instance_config(const Config &cfg, std::string name,
                engine::InstanceRole role)
{
    engine::InstanceConfig ic;
    ic.name = std::move(name);
    ic.role = role;
    ic.block_size = cfg.block_size;
    ic.max_batch_size = cfg.max_batch_size;
    ic.max_prefill_tokens = cfg.max_prefill_tokens;
    ic.exec_noise_sigma = cfg.exec_noise_sigma;
    ic.swap_enabled = cfg.swap_enabled;
    ic.host_memory_bytes = cfg.host_memory_bytes;
    ic.kv_capacity_tokens_override = cfg.kv_capacity_tokens_override;
    return ic;
}

} // namespace

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
    replicas_.resize(cfg.num_replicas);
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        const std::string prefix =
            replicas_.size() > 1 ? "distserve/r" + std::to_string(i) + "/"
                                 : "distserve/";
        Replica &rep = replicas_[i];
        rep.prefill = std::make_unique<engine::Instance>(
            sim_,
            instance_config(cfg, prefix + "prefill",
                            engine::InstanceRole::Prefill),
            prefill_cost, seed_rng.fork(),
            topo.host_link(placement.prefill.front()));
        rep.decode = std::make_unique<engine::Instance>(
            sim_,
            instance_config(cfg, prefix + "decode",
                            engine::InstanceRole::Decode),
            decode_cost, seed_rng.fork(),
            topo.host_link(placement.decode.front()));

        // DistServe's copy is synchronous by definition.
        transfer::KvTransferConfig xcfg;
        if (replicas_.size() > 1)
            xcfg.name_prefix = prefix;
        rep.xfer = std::make_unique<transfer::KvTransferManager>(
            sim_, pd_link, cfg.model, xcfg);

        rep.prefill->callbacks.on_prefill_complete = [this, i](Request *r) {
            on_prefill_complete(i, r);
        };
    }
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

    replicas_.resize(cfg.num_engines);
    for (std::size_t e = 0; e < replicas_.size(); ++e) {
        engine::InstanceConfig icfg =
            instance_config(cfg, "vllm/engine" + std::to_string(e),
                            engine::InstanceRole::Colocated);
        icfg.chunk_size = cfg.chunk_size;
        icfg.chunked_prefill = true;
        replicas_[e].prefill = std::make_unique<engine::Instance>(
            sim_, icfg, cost, seed_rng.fork(),
            topo.host_link(e * gpus_per_engine));
        replicas_[e].prefill->callbacks.on_prefill_complete =
            [this, e](Request *r) { on_prefill_complete(e, r); };
    }
}

void
BaselineSystem::replay(const std::vector<workload::Request> &trace,
                       double horizon)
{
    requests_ = trace;
    {
        sim::SourceScope src(sim_, "arrival");
        std::size_t next = 0;
        for (auto &r : requests_) {
            Request *ptr = &r;
            engine::Instance *target =
                replicas_[next++ % replicas_.size()].prefill.get();
            sim_.schedule_at(r.arrival_time, [target, ptr] {
                target->enqueue_prefill(ptr);
            });
        }
    }
    sim_.run_until(horizon);
    for (Replica &rep : replicas_) {
        rep.prefill->finalize_stats();
        if (rep.decode)
            rep.decode->finalize_stats();
    }
}

void
BaselineSystem::on_prefill_complete(std::size_t i, Request *r)
{
    Replica &rep = replicas_[i];
    if (r->output_tokens <= 1) {
        r->finish_time = sim_.now();
        audit::transition(audit(), *r, RequestState::Finished);
        rep.prefill->release_kv(r);
        if (faults())
            faults()->note_decode_ready(r);
        return;
    }
    if (!rep.xfer) {
        // Co-located: the request decodes where it prefilled.
        rep.prefill->enqueue_decode(r, /*kv_resident=*/true);
        if (faults())
            faults()->note_decode_ready(r);
        return;
    }
    // Synchronous transfer: the request only becomes eligible for decode
    // admission after the full KV copy lands.
    rep.transferring[r->id] = r;
    rep.xfer->transfer_prefill_kv(r, [this, i, r, inc = r->incarnation] {
        if (r->incarnation != inc)
            return; // the prefill crashed mid-copy; r was re-dispatched
        Replica &p = replicas_[i];
        p.transferring.erase(r->id);
        p.prefill->release_kv(r);
        p.decode->enqueue_decode(r, /*kv_resident=*/false);
        if (faults())
            faults()->note_decode_ready(r);
    });
}

void
BaselineSystem::attach(const engine::Attachments &at)
{
    for (Replica &rep : replicas_) {
        engine::Instance *insts[] = {rep.prefill.get(), rep.decode.get()};
        for (engine::Instance *inst : insts)
            if (inst)
                inst->attach(at);
        if (rep.xfer)
            rep.xfer->attach(at);
        if (at.telemetry) {
            obs::MetricRegistry &reg = at.telemetry->registry();
            for (engine::Instance *inst : insts)
                if (inst)
                    inst->register_metrics(reg);
            if (rep.xfer) {
                rep.xfer->forward_channel().register_metrics(reg);
                rep.xfer->reverse_channel().register_metrics(reg);
                rep.xfer->staged_channel().register_metrics(reg);
            }
        }
        if (at.faults) {
            for (engine::Instance *inst : insts)
                if (inst)
                    at.faults->add_instance(inst);
            if (rep.xfer) {
                at.faults->add_channel(&rep.xfer->forward_channel());
                at.faults->add_channel(&rep.xfer->reverse_channel());
            }
        }
    }
    if (!at.faults)
        return;
    // A victim restarts from scratch on its home replica's prefill
    // instance, probing round-robin from there for a live one.
    at.faults->set_redispatch([this](Request *r) {
        r->prefilled = 0;
        r->generated = 0;
        const std::size_t n = replicas_.size();
        const std::size_t home = static_cast<std::size_t>(r->id) % n;
        for (std::size_t k = 0; k < n; ++k) {
            engine::Instance &inst = *replicas_[(home + k) % n].prefill;
            if (!inst.is_down()) {
                inst.enqueue_prefill(r);
                return;
            }
        }
        // Everything is down: queue on the home replica; it resumes the
        // request after its repair.
        replicas_[home].prefill->enqueue_prefill(r);
    });
    at.faults->set_crash_hook(
        [this](engine::Instance &inst, std::vector<Request *> &victims) {
            for (Replica &rep : replicas_) {
                if (&inst != rep.prefill.get())
                    continue;
                for (auto &[id, r] : rep.transferring)
                    victims.push_back(r);
                rep.transferring.clear();
            }
        });
}

void
BaselineSystem::fill_system_metrics(metrics::RunMetrics &m)
{
    // A co-located engine does both phases, so it reports the same
    // means in both slots and Fig. 2-style comparisons stay
    // well-defined.
    double pcu = 0, pbu = 0, dcu = 0, dbu = 0;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
        pcu += prefill(i).mean_compute_utilization();
        pbu += prefill(i).mean_bandwidth_utilization();
        dcu += decode(i).mean_compute_utilization();
        dbu += decode(i).mean_bandwidth_utilization();
    }
    const double n = static_cast<double>(replicas_.size());
    m.prefill_compute_util = pcu / n;
    m.prefill_bandwidth_util = pbu / n;
    m.decode_compute_util = dcu / n;
    m.decode_bandwidth_util = dbu / n;
}

} // namespace windserve::baselines
