#include "core/coordinator.hpp"

#include <algorithm>

#include "audit/sim_auditor.hpp"
#include "obs/decision_journal.hpp"
#include "obs/trace_recorder.hpp"
#include "simcore/log.hpp"

namespace windserve::core {

Coordinator::Coordinator(CoordinatorConfig cfg, Profiler &prefill_profiler)
    : cfg_(cfg), prefill_profiler_(prefill_profiler)
{}

double
Coordinator::log_now() const
{
    return clock_ ? clock_->now() : sim::kNoLogTime;
}

void
Coordinator::compute_budget(const model::CostModel &decode_cost,
                            double ttft_slo, double tpot_slo,
                            double typical_batch, double typical_context)
{
    if (cfg_.budget_tokens != 0)
        return; // explicitly configured
    // Gate: if even the interference-slowed decode iteration would break
    // the TPOT SLO, the decode instance cannot assist at all.
    double slowed = decode_cost.sbd_decode_time(
        typical_batch, typical_batch * typical_context);
    if (slowed > tpot_slo) {
        cfg_.budget_tokens = 0;
        cfg_.enable_dispatch = false;
        return;
    }
    // Largest N whose SBD prefill stream fits half the TTFT SLO.
    double limit = 0.5 * ttft_slo;
    std::size_t lo = 0, hi = 65536;
    while (lo < hi) {
        std::size_t mid = (lo + hi + 1) / 2;
        if (decode_cost.sbd_prefill_time(static_cast<double>(mid)) <= limit)
            lo = mid;
        else
            hi = mid - 1;
    }
    cfg_.budget_tokens = lo;
    WS_LOG_AT(Info, "coordinator", log_now())
        << "assist budget = " << lo << " tokens (limit " << limit << "s)";
}

std::size_t
Coordinator::available_slots(const engine::Instance &decode) const
{
    // "if the KV blocks in the decoding instance are inadequate, the
    // available slot is set to 0."
    const auto &bm = decode.blocks();
    std::size_t reserve_blocks =
        bm.blocks_for(cfg_.dispatch_kv_reserve_tokens);
    if (bm.free_blocks() <= reserve_blocks)
        return 0;
    std::size_t free_tokens =
        (bm.free_blocks() - reserve_blocks) * bm.block_size();
    std::size_t pending = decode.assist_tokens_pending();
    std::size_t budget = cfg_.budget_tokens > pending
                             ? cfg_.budget_tokens - pending
                             : 0;
    return std::min(budget, free_tokens);
}

DispatchDecision
Coordinator::decide_dispatch(const workload::Request &r,
                             const engine::Instance &prefill,
                             const engine::Instance &decode)
{
    if (!cfg_.enable_dispatch)
        return DispatchDecision::PrefillInstance;
    double queued =
        static_cast<double>(prefill.waiting_prefill_tokens());
    double ttft_pred = prefill_profiler_.predict_ttft(
        queued, static_cast<double>(r.prompt_tokens),
        prefill.inflight_prefill_remaining());

    // Journal the full Algorithm-1 deliberation: both candidates with
    // the loads that scored them. available_slots() is a pure read, so
    // evaluating it for the journal never perturbs the decision.
    auto note = [&](const char *chosen, const char *reason,
                    std::size_t slots) {
        if (journal_ == nullptr)
            return;
        obs::Decision d;
        d.time = log_now();
        d.kind = obs::DecisionKind::Dispatch;
        d.request = r.id;
        d.chosen = chosen;
        d.reason = reason;
        d.candidates.push_back(obs::DecisionOption{
            "prefill",
            true,
            {{"predicted_ttft", ttft_pred},
             {"thrd", cfg_.thrd},
             {"queued_tokens", queued},
             {"inflight_remaining",
              prefill.inflight_prefill_remaining()}}});
        d.candidates.push_back(obs::DecisionOption{
            "decode",
            slots >= r.prompt_tokens,
            {{"available_slots", static_cast<double>(slots)},
             {"prompt_tokens",
              static_cast<double>(r.prompt_tokens)}}});
        journal_->record(std::move(d));
    };

    if (ttft_pred <= cfg_.thrd) {
        note("prefill", "ttft_under_thrd",
             journal_ ? available_slots(decode) : 0);
        return DispatchDecision::PrefillInstance;
    }
    std::size_t slots = available_slots(decode);
    if (slots >= r.prompt_tokens) {
        ++dispatches_;
        if (audit_)
            audit_->on_dispatch(r.id, r.prompt_tokens, slots);
        if (trace_) {
            trace_->instant(
                log_now(), obs::Category::Scheduler, "scheduler",
                "coordinator", "dispatch-to-decode",
                {obs::num_arg("req", std::uint64_t(r.id)),
                 obs::num_arg("tokens", std::uint64_t(r.prompt_tokens)),
                 obs::num_arg("predicted_ttft", ttft_pred)});
        }
        note("decode", "ttft_over_thrd", slots);
        return DispatchDecision::DecodeInstance;
    }
    note("prefill", "no_decode_slots", slots);
    return DispatchDecision::PrefillInstance;
}

bool
Coordinator::maybe_reschedule(engine::Instance &decode,
                              const engine::Instance &prefill,
                              transfer::MigrationManager &migration)
{
    if (!cfg_.enable_rescheduling)
        return false;
    // Every gate below is a pure read, so their order cannot change the
    // outcome; occupancy goes first so the journal records exactly the
    // pressure-triggered deliberations (the no-pressure common case is
    // not a decision worth remembering).
    const double occupancy = decode.blocks().occupancy();
    if (occupancy < cfg_.resched_occupancy_trigger)
        return false;

    const std::size_t resident = prefill.running_decode_requests() +
                                 prefill.waiting_decode_requests();
    auto note = [&](std::uint64_t req, bool feasible, const char *chosen,
                    const char *reason, double victim_ctx) {
        if (journal_ == nullptr)
            return;
        obs::Decision d;
        d.time = log_now();
        d.kind = obs::DecisionKind::Reschedule;
        d.request = req;
        d.chosen = chosen;
        d.reason = reason;
        d.candidates.push_back(obs::DecisionOption{
            "migrate-to-prefill",
            feasible,
            {{"decode_occupancy", occupancy},
             {"trigger", cfg_.resched_occupancy_trigger},
             {"active_migrations",
              static_cast<double>(migration.active())},
             {"migrated_resident", static_cast<double>(resident)},
             {"victim_ctx", victim_ctx}}});
        journal_->record(std::move(d));
    };

    if (migration.active() >= cfg_.max_concurrent_migrations) {
        note(0, false, "", "migration_cap", 0.0);
        return false;
    }
    // At most 8 migrated decodes reside at the prefill instance: more
    // keep it in chunked mode, degrading prefill throughput more than
    // they relieve decode memory; stop rescheduling until they drain.
    if (resident >= 8) {
        note(0, false, "", "resident_cap", 0.0);
        return false;
    }
    engine::Request *victim =
        engine::select_migration_victim(decode.groups());
    if (victim == nullptr) {
        note(0, false, "", "no_victim", 0.0);
        return false;
    }
    if (!migration.start(victim)) {
        note(victim->id, false, "", "migration_start_failed",
             static_cast<double>(victim->context_length()));
        return false;
    }
    note(victim->id, true, "migrate-to-prefill",
         "occupancy_over_trigger",
         static_cast<double>(victim->context_length()));
    ++reschedules_;
    if (audit_) {
        audit_->on_reschedule(victim->id, decode.blocks().occupancy(),
                              cfg_.resched_occupancy_trigger);
    }
    if (trace_) {
        trace_->instant(
            log_now(), obs::Category::Scheduler, "scheduler",
            "coordinator", "reschedule",
            {obs::num_arg("req", std::uint64_t(victim->id)),
             obs::num_arg("ctx", std::uint64_t(victim->context_length())),
             obs::num_arg("decode_occupancy",
                          decode.blocks().occupancy())});
    }
    WS_LOG_AT(Debug, "coordinator", log_now())
        << "reschedule req " << victim->id << " ctx "
        << victim->context_length();
    return true;
}

} // namespace windserve::core
