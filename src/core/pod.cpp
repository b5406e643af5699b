#include "core/pod.hpp"

#include <cmath>
#include <stdexcept>

#include "audit/sim_auditor.hpp"
#include "fault/fault_injector.hpp"
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
    if (!(co.budget_ttft_fraction > 0.0 && co.budget_ttft_fraction <= 1.0))
        fail("coordinator.budget_ttft_fraction must be in (0, 1], got " +
             std::to_string(co.budget_ttft_fraction));
    for (auto [name, v] :
         {std::pair{"dispatch_reserve_fraction",
                    cfg.dispatch_reserve_fraction},
          std::pair{"coordinator.resched_occupancy_trigger",
                    co.resched_occupancy_trigger}}) {
        if (!(v >= 0.0 && v <= 1.0))
            fail(std::string(name) + " must be in [0, 1], got " +
                 std::to_string(v));
    }
}

} // namespace

Pod::Pod(sim::Simulator &sim, const WindServeConfig &cfg, PodHooks hooks,
         std::string name_prefix, std::size_t index)
    : sim_(sim), hooks_(std::move(hooks)),
      name_prefix_(std::move(name_prefix)), index_(index),
      enable_backup_(cfg.coordinator.enable_backup), topo_(cfg.topology)
{
    validate(cfg, index);
    sim::Rng seed_rng(cfg.seed);

    hw::PdPlacement placement = hw::default_pd_placement(
        topo_, cfg.prefill_parallelism.num_gpus(),
        cfg.decode_parallelism.num_gpus());

    model::CostModel prefill_cost(cfg.model, topo_.gpu(0),
                                  cfg.prefill_parallelism, cfg.cost_params);
    model::CostModel decode_cost(cfg.model, topo_.gpu(0),
                                 cfg.decode_parallelism, cfg.cost_params);

    engine::InstanceConfig pcfg = engine::instance_config(
        cfg, name_prefix_ + "prefill", engine::InstanceRole::Prefill);
    // Migrated decodes trigger chunked prefill here (§3.3). Large
    // chunks keep prefill throughput high; the few migrated decodes are
    // long-context requests with TPOT slack.
    pcfg.chunk_size = cfg.prefill_chunk_size;
    pcfg.chunked_prefill = true;
    pair_.prefill = std::make_unique<engine::Instance>(
        sim_, pcfg, prefill_cost, seed_rng.fork(),
        topo_.host_link(placement.prefill.front()));

    engine::InstanceConfig dcfg = engine::instance_config(
        cfg, name_prefix_ + "decode", engine::InstanceRole::Decode);
    dcfg.chunk_size = cfg.chunk_size;
    dcfg.stream_based_disaggregation = cfg.enable_sbd;
    pair_.decode = std::make_unique<engine::Instance>(
        sim_, dcfg, decode_cost, seed_rng.fork(),
        topo_.host_link(placement.decode.front()));

    hw::Link pd_link = topo_.best_link(placement.prefill, placement.decode);
    transfer::KvTransferConfig xcfg = cfg.transfer;
    xcfg.name_prefix = name_prefix_ + xcfg.name_prefix;
    pair_.xfer = std::make_unique<transfer::KvTransferManager>(
        sim_, pd_link, cfg.model, xcfg);
    engine::Instance &prefill = *pair_.prefill;
    engine::Instance &decode = *pair_.decode;

    migration_ = std::make_unique<transfer::MigrationManager>(
        sim_, *pair_.xfer, decode, prefill, backup_registry_, cfg.migration);
    backup_ = std::make_unique<transfer::BackupManager>(
        sim_, *pair_.xfer, decode, prefill, backup_registry_, cfg.backup);

    // Dispatch must back off before the decode instance is memory-tight;
    // scale the KV reserve with the actual capacity.
    CoordinatorConfig coord_cfg = cfg.coordinator;
    coord_cfg.dispatch_kv_reserve_tokens = std::max(
        coord_cfg.dispatch_kv_reserve_tokens,
        static_cast<std::size_t>(cfg.dispatch_reserve_fraction *
                                 decode_cost.kv_capacity_tokens()));
    scheduler_ = std::make_unique<GlobalScheduler>(coord_cfg);
    scheduler_->bind_clock(&sim_);
    sim::Rng calib_rng = seed_rng.fork();
    scheduler_->calibrate(prefill_cost, decode_cost, cfg.ttft_slo,
                          cfg.tpot_slo, calib_rng, cfg.exec_noise_sigma);

    // ------------------------------------------------------------------
    // callback wiring
    // ------------------------------------------------------------------
    prefill.callbacks.on_prefill_complete = [this](Request *r) {
        on_prefill_complete_at_prefill(r);
    };
    prefill.callbacks.on_finished = [this](Request *r) { on_finished(r); };
    prefill.callbacks.on_prefill_observation = [this](double n, double t) {
        scheduler_->prefill_profiler().observe_prefill(n, t);
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
        scheduler_->coordinator().maybe_reschedule(
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
    scheduler_->coordinator().attach(at);
    if (!at.telemetry)
        return;
    obs::MetricRegistry &reg = at.telemetry->registry();

    const Coordinator *coord = &scheduler_->coordinator();
    reg.counter("ws_sched_dispatches_total", pod_label,
                [coord] {
                    return static_cast<double>(coord->dispatches());
                },
                "Dynamic prefill dispatches to the decode instance");
    reg.counter("ws_sched_reschedules_total", pod_label,
                [coord] {
                    return static_cast<double>(coord->reschedules());
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
    DispatchDecision d = scheduler_->coordinator().decide_dispatch(
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
    if (hooks_.offload_decode(*this, r))
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

workload::Request *
Pod::take_held_offload(workload::RequestId id)
{
    auto it = pair_.transferring.find(id);
    if (it == pair_.transferring.end())
        return nullptr;
    Request *r = it->second;
    pair_.transferring.erase(it);
    return r;
}

void
Pod::notify_decode_ready(Request *r)
{
    if (!at_.faults)
        return;
    if (hooks_.decode_ready)
        hooks_.decode_ready(*this, r);
    else
        at_.faults->note_decode_ready(r);
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
    hooks_.on_finished(r);
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
    if (hooks_.redispatch_remote(*this, r))
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
        hooks_.on_prefill_crash(*this, victims);
    } else {
        backup_->on_source_crash();
        for (Request *r : migration_->cancel_active())
            victims.push_back(r);
    }
}

} // namespace windserve::core
