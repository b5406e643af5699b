/**
 * @file
 * The Global Scheduler's Coordinator (paper §3.2.2).
 *
 * Implements the two dynamic scheduling strategies:
 *
 *  - Dynamic Prefill Dispatch (Algorithm 1): when the Profiler predicts
 *    the new request's TTFT on the prefill instance would exceed the
 *    threshold `thrd`, and the decode instance has enough prefill-token
 *    slots (bounded by a pre-computed budget and KV availability), the
 *    prefill job is dispatched to the decode instance.
 *
 *  - Dynamic Rescheduling: when the decode instance's KV blocks near
 *    exhaustion, long-context requests are migrated (stall-free) to the
 *    prefill instance, freeing decode KV and avoiding swap I/O.
 */
#pragma once

#include <cstdint>

#include "core/profiler.hpp"
#include "engine/instance.hpp"
#include "transfer/migration.hpp"

namespace windserve::core {

/** Tunables of the Coordinator's policies. */
struct CoordinatorConfig {
    /**
     * Dispatch threshold on predicted TTFT, seconds. The paper sets it
     * "slightly below the TTFT SLO" (§3.2.2, Fig. 5 studies the sweep).
     */
    double thrd = 0.2;
    /**
     * Assist-prefill token budget for the decode instance. 0 means
     * "derive from SLOs at startup" via compute_budget().
     */
    std::size_t budget_tokens = 0;
    /** Decode KV-block occupancy that triggers Dynamic Rescheduling. */
    double resched_occupancy_trigger = 0.92;
    /**
     * Free-token reserve the decode instance keeps for decode growth.
     * The pod raises this to 6% of the decode KV capacity at startup
     * so Dynamic Prefill Dispatch backs off BEFORE rescheduling triggers.
     */
    std::size_t dispatch_kv_reserve_tokens = 2048;
    /** Enable/disable the two strategies (ablations). */
    bool enable_dispatch = true;
    bool enable_rescheduling = true;
    /** Enable proactive KV backups of long requests. */
    bool enable_backup = true;
    /** Max concurrent migrations. */
    std::size_t max_concurrent_migrations = 2;
};

/** Where a new request's prefill should run. */
enum class DispatchDecision { PrefillInstance, DecodeInstance };

/**
 * Cross-instance dynamic scheduling policy engine. Owns no instances;
 * the Pod that owns it wires it to them.
 */
class Coordinator
{
  public:
    Coordinator(CoordinatorConfig cfg, Profiler &prefill_profiler);

    /**
     * Derive the assist budget from SLOs: the largest prefill token
     * count whose SBD stream on the decode instance stays within half
     * of @p ttft_slo, provided the interference-slowed
     * decode iteration still meets the TPOT SLO (paper: "limiting the
     * maximum number of prefill tokens that do not exceed the TPOT SLO
     * in a single forward pass", determined "through simulation and
     * profiling before runtime").
     */
    void compute_budget(const model::CostModel &decode_cost, double ttft_slo,
                        double tpot_slo, double typical_batch = 16.0,
                        double typical_context = 1024.0);

    /** Algorithm 1: decide where a new request's prefill runs. */
    DispatchDecision decide_dispatch(const workload::Request &r,
                                     const engine::Instance &prefill,
                                     const engine::Instance &decode);

    /** Algorithm 1 line 3: prefill tokens the decode instance can host. */
    std::size_t available_slots(const engine::Instance &decode) const;

    /**
     * Dynamic Rescheduling check — call after decode steps. Starts at
     * most one migration per call. @return true if one started.
     */
    bool maybe_reschedule(engine::Instance &decode,
                          const engine::Instance &prefill,
                          transfer::MigrationManager &migration);

    const CoordinatorConfig &config() const { return cfg_; }
    std::size_t budget_tokens() const { return cfg_.budget_tokens; }

    std::uint64_t dispatches() const { return dispatches_; }
    std::uint64_t reschedules() const { return reschedules_; }

    /**
     * Record dispatch/reschedule decision instants on at.trace, report
     * the decisions (with the slot/occupancy evidence backing them) to
     * at.audit, and journal every dispatch deliberation and every
     * pressure-triggered rescheduling deliberation (candidate sets,
     * scores, outcome) into at.journal. Null pointers (the default)
     * disable each; the decisions themselves are identical either way.
     */
    void attach(const engine::Attachments &at)
    {
        trace_ = at.trace;
        audit_ = at.audit;
        journal_ = at.journal;
    }

    /** Timebase for timestamped logs and decision instants. The
     *  coordinator owns no simulator; the serving system binds its own. */
    void bind_clock(const sim::Simulator *clock) { clock_ = clock; }

  private:
    double log_now() const;

    CoordinatorConfig cfg_;
    Profiler &prefill_profiler_;
    std::uint64_t dispatches_ = 0;
    std::uint64_t reschedules_ = 0;
    obs::TraceRecorder *trace_ = nullptr;
    audit::SimAuditor *audit_ = nullptr;
    obs::DecisionJournal *journal_ = nullptr;
    const sim::Simulator *clock_ = nullptr;
};

} // namespace windserve::core
