#include "baselines/distserve_system.hpp"

#include <stdexcept>

#include "fault/fault_injector.hpp"

namespace windserve::baselines {

using workload::Request;
using workload::RequestState;

DistServeSystem::DistServeSystem(DistServeConfig cfg)
    : cfg_(std::move(cfg)), topo_(cfg_.topology)
{
    if (cfg_.num_replicas == 0)
        throw std::invalid_argument("DistServe: need at least one replica");

    sim::Rng seed_rng(cfg_.seed);
    hw::PdPlacement placement = hw::default_pd_placement(
        topo_, cfg_.prefill_parallelism.num_gpus(),
        cfg_.decode_parallelism.num_gpus());

    model::CostModel prefill_cost(cfg_.model, topo_.gpu(0),
                                  cfg_.prefill_parallelism,
                                  cfg_.cost_params);
    model::CostModel decode_cost(cfg_.model, topo_.gpu(0),
                                 cfg_.decode_parallelism, cfg_.cost_params);

    // Replicas share one node-local placement: each models its own PD
    // pair on its own node, so link geometry is identical per pair. A
    // single replica keeps the historical names ("distserve/prefill")
    // and RNG fork order, byte-identical to the pre-cluster system.
    pairs_.resize(cfg_.num_replicas);
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
        const std::string prefix =
            pairs_.size() > 1 ? "distserve/r" + std::to_string(i) + "/"
                              : "distserve/";
        Pair &pr = pairs_[i];

        engine::InstanceConfig pcfg;
        pcfg.name = prefix + "prefill";
        pcfg.role = engine::InstanceRole::Prefill;
        pcfg.block_size = cfg_.block_size;
        pcfg.max_batch_size = cfg_.max_batch_size;
        pcfg.max_prefill_tokens = cfg_.max_prefill_tokens;
        pcfg.exec_noise_sigma = cfg_.exec_noise_sigma;
        pcfg.swap_enabled = cfg_.swap_enabled;
        pcfg.host_memory_bytes = cfg_.host_memory_bytes;
        pcfg.kv_capacity_tokens_override = cfg_.kv_capacity_tokens_override;
        pr.prefill = std::make_unique<engine::Instance>(
            sim_, pcfg, prefill_cost, seed_rng.fork(),
            topo_.host_link(placement.prefill.front()));

        engine::InstanceConfig dcfg;
        dcfg.name = prefix + "decode";
        dcfg.role = engine::InstanceRole::Decode;
        dcfg.block_size = cfg_.block_size;
        dcfg.max_batch_size = cfg_.max_batch_size;
        dcfg.max_prefill_tokens = cfg_.max_prefill_tokens;
        dcfg.exec_noise_sigma = cfg_.exec_noise_sigma;
        dcfg.swap_enabled = cfg_.swap_enabled;
        dcfg.host_memory_bytes = cfg_.host_memory_bytes;
        dcfg.kv_capacity_tokens_override = cfg_.kv_capacity_tokens_override;
        pr.decode = std::make_unique<engine::Instance>(
            sim_, dcfg, decode_cost, seed_rng.fork(),
            topo_.host_link(placement.decode.front()));

        hw::Link pd_link =
            topo_.best_link(placement.prefill, placement.decode);
        transfer::KvTransferConfig xcfg = cfg_.transfer;
        if (pairs_.size() > 1)
            xcfg.name_prefix = prefix + xcfg.name_prefix;
        pr.xfer = std::make_unique<transfer::KvTransferManager>(
            sim_, pd_link, cfg_.model, xcfg);

        pr.prefill->callbacks.on_prefill_complete = [this, i](Request *r) {
            on_prefill_complete(i, r);
        };
    }
}

std::size_t
DistServeSystem::num_gpus() const
{
    return pairs_.size() * (cfg_.prefill_parallelism.num_gpus() +
                            cfg_.decode_parallelism.num_gpus());
}

void
DistServeSystem::replay(const std::vector<workload::Request> &trace,
                        double horizon)
{
    requests_ = trace;
    {
        sim::SourceScope src(sim_, "arrival");
        std::size_t next = 0;
        for (auto &r : requests_) {
            Request *ptr = &r;
            engine::Instance *target =
                pairs_[next++ % pairs_.size()].prefill.get();
            sim_.schedule_at(r.arrival_time, [target, ptr] {
                target->enqueue_prefill(ptr);
            });
        }
    }
    sim_.run_until(horizon);
    for (Pair &pr : pairs_) {
        pr.prefill->finalize_stats();
        pr.decode->finalize_stats();
    }
}

void
DistServeSystem::on_prefill_complete(std::size_t pair, Request *r)
{
    Pair &pr = pairs_[pair];
    if (r->output_tokens <= 1) {
        r->finish_time = sim_.now();
        audit::transition(audit(), *r, RequestState::Finished);
        pr.prefill->release_kv(r);
        if (faults())
            faults()->note_decode_ready(r);
        return;
    }
    // Synchronous transfer: the request only becomes eligible for decode
    // admission after the full KV copy lands.
    pr.transferring[r->id] = r;
    pr.xfer->transfer_prefill_kv(r, [this, pair, r,
                                     inc = r->incarnation] {
        if (r->incarnation != inc)
            return; // the prefill crashed mid-copy; r was re-dispatched
        Pair &p = pairs_[pair];
        p.transferring.erase(r->id);
        p.prefill->release_kv(r);
        p.decode->enqueue_decode(r, /*kv_resident=*/false);
        if (faults())
            faults()->note_decode_ready(r);
    });
}

void
DistServeSystem::attach(const engine::Attachments &at)
{
    for (Pair &pr : pairs_) {
        pr.prefill->attach(at);
        pr.decode->attach(at);
        pr.xfer->attach(at);
        if (at.telemetry) {
            obs::MetricRegistry &reg = at.telemetry->registry();
            pr.prefill->register_metrics(reg);
            pr.decode->register_metrics(reg);
            pr.xfer->forward_channel().register_metrics(reg);
            pr.xfer->reverse_channel().register_metrics(reg);
            pr.xfer->staged_channel().register_metrics(reg);
        }
        if (at.faults) {
            at.faults->add_instance(pr.prefill.get());
            at.faults->add_instance(pr.decode.get());
            at.faults->add_channel(&pr.xfer->forward_channel());
            at.faults->add_channel(&pr.xfer->reverse_channel());
        }
    }
    if (!at.faults)
        return;
    // DistServe-style recovery: no KV backups and no role flexibility —
    // every crash victim recomputes its full prefill on its replica's
    // prefill instance (falling back to the next live replica when it
    // is down). This is the expensive full-re-migration path
    // WindServe's backup-aware re-dispatch is benchmarked against.
    at.faults->set_redispatch([this](Request *r) {
        r->prefilled = 0;
        r->generated = 0;
        std::size_t home = static_cast<std::size_t>(r->id) % pairs_.size();
        for (std::size_t off = 0; off < pairs_.size(); ++off) {
            Pair &pr = pairs_[(home + off) % pairs_.size()];
            if (!pr.prefill->is_down()) {
                pr.prefill->enqueue_prefill(r);
                return;
            }
        }
        pairs_[home].prefill->enqueue_prefill(r);
    });
    at.faults->set_crash_hook(
        [this](engine::Instance &inst, std::vector<Request *> &victims) {
            for (Pair &pr : pairs_) {
                if (&inst != pr.prefill.get())
                    continue;
                for (auto &[id, r] : pr.transferring)
                    victims.push_back(r);
                pr.transferring.clear();
            }
        });
}

void
DistServeSystem::fill_system_metrics(metrics::RunMetrics &m)
{
    double pcu = 0, pbu = 0, dcu = 0, dbu = 0;
    for (Pair &pr : pairs_) {
        pcu += pr.prefill->mean_compute_utilization();
        pbu += pr.prefill->mean_bandwidth_utilization();
        dcu += pr.decode->mean_compute_utilization();
        dbu += pr.decode->mean_bandwidth_utilization();
    }
    const double n = static_cast<double>(pairs_.size());
    m.prefill_compute_util = pcu / n;
    m.prefill_bandwidth_util = pbu / n;
    m.decode_compute_util = dcu / n;
    m.decode_bandwidth_util = dbu / n;
}

} // namespace windserve::baselines
