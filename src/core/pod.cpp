#include "core/pod.hpp"

#include <cmath>
#include <stdexcept>

#include "audit/sim_auditor.hpp"
#include "core/cluster_system.hpp"
#include "obs/telemetry.hpp"
#include "simcore/log.hpp"

namespace windserve::core {

using workload::Request;
using workload::RequestState;

namespace {

/** Throws std::invalid_argument naming pod @p index and the first
 *  out-of-range pod-level field of @p cfg. The instance-level fields
 *  are checked by each Instance. */
void
validate(const WindServeConfig &cfg, std::size_t index)
{
    auto fail = [index](const std::string &what) {
        throw std::invalid_argument("WindServeConfig (pod " +
                                    std::to_string(index) + "): " + what);
    };
    for (auto [name, v] : {std::pair{"ttft_slo", cfg.ttft_slo},
                           std::pair{"tpot_slo", cfg.tpot_slo}}) {
        if (!std::isfinite(v) || v <= 0.0)
            fail(std::string(name) + " must be finite and > 0, got " +
                 std::to_string(v));
    }
    const CoordinatorConfig &co = cfg.coordinator;
    if (!std::isfinite(co.thrd) || co.thrd < 0.0)
        fail("coordinator.thrd must be finite and >= 0, got " +
             std::to_string(co.thrd));
    if (!(co.resched_occupancy_trigger >= 0.0 &&
          co.resched_occupancy_trigger <= 1.0))
        fail("coordinator.resched_occupancy_trigger must be in [0, 1], "
             "got " + std::to_string(co.resched_occupancy_trigger));
}

} // namespace

Pod::Pod(sim::Simulator &sim, const WindServeConfig &cfg,
         ClusterServeSystem &cluster, std::string name_prefix,
         std::size_t index)
    : sim_(sim), cluster_(cluster), index_(index),
      enable_backup_(cfg.coordinator.enable_backup), topo_(cfg.topology)
{
    validate(cfg, index);
    sim::Rng seed_rng(cfg.seed);

    hw::PdPlacement placement = hw::default_pd_placement(
        topo_, cfg.prefill_parallelism.num_gpus(),
        cfg.decode_parallelism.num_gpus());

    model::CostModel prefill_cost(cfg.model, topo_.gpu(0),
                                  cfg.prefill_parallelism);
    model::CostModel decode_cost(cfg.model, topo_.gpu(0),
                                 cfg.decode_parallelism);

    engine::InstanceConfig pcfg =
        cfg.instance(name_prefix + "prefill", engine::InstanceRole::Prefill);
    // Migrated decodes trigger chunked prefill here (§3.3). Large
    // chunks keep prefill throughput high; the few migrated decodes are
    // long-context requests with TPOT slack.
    pcfg.chunk_size = 2048;
    pcfg.chunked_prefill = true;
    pair_.prefill = std::make_unique<engine::Instance>(
        sim_, pcfg, prefill_cost, seed_rng.fork(),
        topo_.host_link(placement.prefill.front()));

    engine::InstanceConfig dcfg =
        cfg.instance(name_prefix + "decode", engine::InstanceRole::Decode);
    dcfg.chunk_size = cfg.chunk_size;
    dcfg.stream_based_disaggregation = cfg.enable_sbd;
    pair_.decode = std::make_unique<engine::Instance>(
        sim_, dcfg, decode_cost, seed_rng.fork(),
        topo_.host_link(placement.decode.front()));

    hw::Link pd_link = topo_.best_link(placement.prefill, placement.decode);
    transfer::KvTransferConfig xcfg = cfg.transfer;
    xcfg.name_prefix = name_prefix + xcfg.name_prefix;
    pair_.xfer = std::make_unique<transfer::KvTransferManager>(
        sim_, pd_link, cfg.model, xcfg);
    engine::Instance &prefill = *pair_.prefill;
    engine::Instance &decode = *pair_.decode;

    migration_ = std::make_unique<transfer::MigrationManager>(
        sim_, *pair_.xfer, decode, prefill, backup_registry_, cfg.migration);
    backup_ = std::make_unique<transfer::BackupManager>(
        sim_, *pair_.xfer, decode, prefill, backup_registry_, cfg.backup);

    // Dispatch must back off before the decode instance is memory-tight:
    // reserve 6% of the actual decode KV capacity from dispatch.
    CoordinatorConfig coord_cfg = cfg.coordinator;
    coord_cfg.dispatch_kv_reserve_tokens = std::max(
        coord_cfg.dispatch_kv_reserve_tokens,
        static_cast<std::size_t>(0.06 * decode_cost.kv_capacity_tokens()));
    coordinator_ = std::make_unique<Coordinator>(coord_cfg, prefill_profiler_);
    coordinator_->bind_clock(&sim_);
    // Offline calibration of the prefill Profiler, then the assist
    // budget from the SLOs over the decode instance's cost model.
    sim::Rng calib_rng = seed_rng.fork();
    prefill_profiler_.calibrate_offline(prefill_cost, calib_rng,
                                        cfg.exec_noise_sigma);
    coordinator_->compute_budget(decode_cost, cfg.ttft_slo, cfg.tpot_slo);

    // ------------------------------------------------------------------
    // callback wiring
    // ------------------------------------------------------------------
    prefill.callbacks.on_prefill_complete = [this](Request *r) {
        on_prefill_complete_at_prefill(r);
    };
    prefill.callbacks.on_finished = [this](Request *r) { on_finished(r); };
    prefill.callbacks.on_prefill_observation = [this](double n, double t) {
        prefill_profiler_.observe_prefill(n, t);
    };

    decode.callbacks.on_prefill_complete = [this](Request *r) {
        on_prefill_complete_at_decode(r);
    };
    decode.callbacks.on_finished = [this](Request *r) { on_finished(r); };
    decode.callbacks.on_assist_bounce = [this](Request *r) {
        // The coordinator's slot check raced with decode KV growth:
        // fall back to the prefill instance.
        pair_.prefill->enqueue_prefill(r);
    };
    decode.callbacks.on_step = [this] {
        migration_->on_source_step();
        coordinator_->maybe_reschedule(
            *pair_.decode, *pair_.prefill, *migration_);
        if (enable_backup_)
            backup_->maybe_backup();
    };

    migration_->on_migrated = [this](Request *r) {
        // enqueue_decode performs the Migrating -> WaitingDecode
        // transition itself.
        pair_.prefill->enqueue_decode(r, /*kv_resident=*/true);
    };
    pair_.on_landed = [this](Request *r) { notify_decode_ready(r); };
}

Pod::~Pod() = default;

void
Pod::attach(const engine::Attachments &at, const std::string &pod_label)
{
    at_ = at;
    pair_.attach(at);
    migration_->attach(at);
    backup_->attach(at);
    coordinator_->attach(at);
    if (!at.telemetry)
        return;
    obs::MetricRegistry &reg = at.telemetry->registry();

    reg.counter("ws_sched_dispatches_total", pod_label,
                [this] {
                    return static_cast<double>(coordinator_->dispatches());
                },
                "Dynamic prefill dispatches to the decode instance");
    reg.counter("ws_sched_reschedules_total", pod_label,
                [this] {
                    return static_cast<double>(coordinator_->reschedules());
                },
                "Dynamic rescheduling migrations started");
    reg.gauge("ws_migrations_active", pod_label,
              [this] {
                  return static_cast<double>(migration_->active());
              },
              "Stall-free migrations currently in flight");
    reg.counter("ws_migrations_completed_total", pod_label,
                [this] {
                    return static_cast<double>(migration_->completed());
                },
                "Stall-free migrations completed");
    reg.counter("ws_backups_taken_total", pod_label,
                [this] {
                    return static_cast<double>(backup_->backups_taken());
                },
                "Proactive KV backups taken");
}

void
Pod::on_arrival(Request *r)
{
    DispatchDecision d = coordinator_->decide_dispatch(
        *r, *pair_.prefill, *pair_.decode);
    // A down instance starts nothing until repaired: route around it
    // while the peer is up — phase-disaggregation's both-roles-capable
    // instances make this a free availability win.
    if (d == DispatchDecision::DecodeInstance && pair_.decode->is_down() &&
        !pair_.prefill->is_down()) {
        d = DispatchDecision::PrefillInstance;
    } else if (d == DispatchDecision::PrefillInstance &&
               pair_.prefill->is_down() && !pair_.decode->is_down()) {
        d = DispatchDecision::DecodeInstance;
    }
    if (d == DispatchDecision::DecodeInstance)
        pair_.decode->enqueue_assist_prefill(r);
    else
        pair_.prefill->enqueue_prefill(r);
}

void
Pod::finish_prefill_only(engine::Instance &inst, Request *r)
{
    // Single-output-token request: the prefill's first token is also the
    // EOS; no decode phase exists.
    r->finish_time = sim_.now();
    audit::transition(at_.audit, *r, RequestState::Finished);
    inst.release_kv(r);
    on_finished(r);
}

void
Pod::on_prefill_complete_at_prefill(Request *r)
{
    if (r->output_tokens <= 1) {
        finish_prefill_only(*pair_.prefill, r);
        return;
    }
    // A cross-pod balancer may claim the KV hand-off (decode offload to
    // a less loaded pod); otherwise the local prefill->decode copy runs.
    if (cluster_.maybe_offload(*this, r))
        return;
    begin_local_decode_transfer(r);
}

void
Pod::begin_local_decode_transfer(Request *r)
{
    // WindServe overlaps the KV copy with the prefill pass; only the
    // tail is left on the critical path here (transfer config).
    pair_.hand_off(r);
}

void
Pod::hold_for_offload(Request *r)
{
    pair_.transferring[r->id] = r;
}

void
Pod::notify_decode_ready(Request *r)
{
    if (at_.faults)
        cluster_.decode_ready(*this, r);
}

void
Pod::on_prefill_complete_at_decode(Request *r)
{
    if (r->output_tokens <= 1) {
        finish_prefill_only(*pair_.decode, r);
        return;
    }
    // Assist prefill: KV is already resident in the decode instance —
    // no transfer at all (a structural benefit of Dynamic Prefill
    // Dispatch).
    r->transfer_done_time = sim_.now();
    pair_.decode->enqueue_decode(r, /*kv_resident=*/true);
    notify_decode_ready(r);
}

void
Pod::admit_remote_decode(Request *r)
{
    r->transfer_done_time = sim_.now();
    pair_.decode->enqueue_decode(r, /*kv_resident=*/false);
    notify_decode_ready(r);
}

void
Pod::on_finished(Request *r)
{
    migration_->on_request_finished(r);
    backup_->on_request_done(r);
    notify_decode_ready(r); // single-token recoveries finish without
                            // re-entering a decode queue
    cluster_.pod_finished(*this, r);
}

void
Pod::redispatch_after_fault(Request *r)
{
    // Backup-aware re-dispatch (the recovery counterpart of §3.3's
    // proactive backups): when a KV prefix backup survives at the
    // prefill instance, resume decoding from it there — only the tokens
    // generated since the backup are recomputed. Otherwise fall back to
    // a full prefill recompute through the normal dispatch path.
    std::size_t backed = backup_registry_.backed_up_tokens(r->id);
    const bool resumable = backed >= r->prompt_tokens && backed > 0 &&
                           !pair_.prefill->is_down() &&
                           pair_.prefill->blocks().holds(r->id);
    if (obs::DecisionJournal *jnl = at_.journal) {
        obs::Decision d;
        d.time = sim_.now();
        d.kind = obs::DecisionKind::Redispatch;
        d.request = r->id;
        d.chosen = resumable ? "resume-backup" : "recompute";
        d.reason = resumable ? "backup_covers_prompt"
                             : "no_usable_backup";
        d.candidates.push_back(obs::DecisionOption{
            "resume-backup",
            resumable,
            {{"backed_up_tokens", static_cast<double>(backed)},
             {"prompt_tokens", static_cast<double>(r->prompt_tokens)},
             {"prefill_up", pair_.prefill->is_down() ? 0.0 : 1.0}}});
        d.candidates.push_back(obs::DecisionOption{
            "recompute",
            true,
            {{"prompt_tokens",
              static_cast<double>(r->prompt_tokens)}}});
        jnl->record(std::move(d));
    }
    if (resumable) {
        backup_registry_.drop(r->id);
        r->prefilled = r->prompt_tokens;
        r->generated = backed - r->prompt_tokens;
        pair_.prefill->enqueue_decode(r, /*kv_resident=*/true);
        notify_decode_ready(r);
        return;
    }
    r->prefilled = 0;
    r->generated = 0;
    // A fully-down pod cannot recompute: offer the victim to the
    // cluster's cross-pod path before queueing on a dead instance.
    if (cluster_.maybe_redispatch_remote(*this, r))
        return;
    on_arrival(r);
}

void
Pod::on_instance_crashed(engine::Instance &inst,
                         std::vector<Request *> &victims)
{
    if (&inst == pair_.prefill.get()) {
        // Every backup copy lived in the crashed HBM.
        migration_->on_target_crash();
        backup_->on_target_crash();
        backup_registry_.clear();
        pair_.sweep(victims);
    } else {
        backup_->on_source_crash();
        for (Request *r : migration_->cancel_active())
            victims.push_back(r);
    }
}

} // namespace windserve::core
