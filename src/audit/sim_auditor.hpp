/**
 * @file
 * Opt-in runtime invariant auditor for simulation runs.
 *
 * A SimAuditor is owned by one ServingSystem run (the same ownership
 * model as obs::TraceRecorder: no globals, nullable pointers in every
 * component, zero cost when off — unaudited runs are byte-identical to
 * a build without the hooks). Components report events as they happen;
 * the auditor maintains independent shadow ledgers and cross-checks
 * them against the components' own counters, so a bookkeeping bug in
 * either side surfaces as a disagreement instead of a silently wrong
 * metric curve.
 *
 * Enforced invariants (see DESIGN.md §8 for the paper mapping):
 *  - KV block conservation per instance: the shadow ledger's
 *    per-request allocations always sum to the BlockManager's used
 *    count, never exceed capacity, and no request is double-allocated
 *    or double-freed;
 *  - host swap-pool conservation: bytes swapped out are credited back
 *    on swap-in, pool occupancy never exceeds capacity, no request is
 *    swapped out twice or swapped in while not resident;
 *  - request lifecycle legality: every state assignment is checked
 *    against the explicit transition table (arrive -> queue -> prefill
 *    -> kv-transfer -> decode -> finish, with migration/swap edges);
 *    Finished is terminal;
 *  - link causality and capacity: a transfer completes only after
 *    latency + bytes/bandwidth from the moment it occupied the link,
 *    all submitted/appended bytes are accounted for at completion, and
 *    appends/completes never reference closed transfers;
 *  - monotonic simulated time across all audited events;
 *  - end-of-run accounting: finished + unfinished == trace size,
 *    finished requests generated exactly their output tokens, their
 *    lifecycle timestamps are ordered and telescope to the end-to-end
 *    latency, and no KV or swap residue maps to a finished request.
 *
 * On violation the auditor records the offending request id and sim
 * time and (by default) throws InvariantViolation carrying a repro
 * line (`--repro-seed=S --repro-config=...`) that examples/fuzz_runner
 * accepts to replay exactly that case.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload/request.hpp"

namespace windserve::sim {
class Simulator;
}

namespace windserve::audit {

/** Tunables of one auditor. */
struct AuditConfig {
    /** Throw InvariantViolation on the first violation (default). When
     *  off, violations accumulate for report() instead (the first 64
     *  are stored). */
    bool fail_fast = true;
    /** Seed that reproduces this run (stamped into the repro line). */
    std::uint64_t repro_seed = 0;
    /** Config token for the repro line (e.g. "windserve"). */
    std::string repro_config;
    /** Extra CLI flags appended verbatim to the repro line (e.g.
     *  " --chaos" for fault-injected fuzz cases). */
    std::string repro_extra;
};

/** One recorded invariant violation. */
struct Violation {
    std::string invariant; ///< short invariant name, e.g. "kv-double-free"
    std::string detail;    ///< human-readable specifics
    double sim_time = 0.0; ///< simulated time of the offending event
    workload::RequestId req = 0; ///< offending request (0 if none)
};

/** Thrown by a fail-fast auditor; carries the violation and repro line. */
class InvariantViolation : public std::runtime_error
{
  public:
    InvariantViolation(Violation v, const std::string &what)
        : std::runtime_error(what), v_(std::move(v))
    {}

    const Violation &violation() const { return v_; }

  private:
    Violation v_;
};

/**
 * One owner's shadow KV ledger. SimAuditor::kv_ledger() hands out a
 * reference that stays valid for the auditor's lifetime, so a
 * BlockManager resolves its owner once and its hooks skip the by-name
 * lookup. Only the auditor reads or writes the contents.
 */
class KvLedger
{
  public:
    explicit KvLedger(std::string owner) : owner_(std::move(owner)) {}

  private:
    friend class SimAuditor;
    std::string owner_;
    std::unordered_map<workload::RequestId, std::size_t> blocks_;
    std::size_t used_ = 0;
};

/** See file comment. */
class SimAuditor
{
  public:
    /** @param sim the owning run's simulation kernel (timebase). */
    explicit SimAuditor(const sim::Simulator &sim, AuditConfig cfg = {});

    SimAuditor(const SimAuditor &) = delete;
    SimAuditor &operator=(const SimAuditor &) = delete;

    // ------------------------------------------------------------------
    // KV block ledger (BlockManager hooks). @p led is the instance's
    // ledger from kv_ledger(); @p mgr_used is the manager's used-block
    // count BEFORE the operation applies, cross-checked against it.
    // ------------------------------------------------------------------

    /** The shadow ledger of @p owner (the instance name), created on
     *  first use. Managers that share an owner share its ledger. */
    KvLedger &kv_ledger(const std::string &owner);

    void on_kv_alloc(KvLedger &led, workload::RequestId id,
                     std::size_t tokens, std::size_t blocks, bool applied,
                     std::size_t mgr_used, std::size_t mgr_total);

    /** @p new_tokens / @p new_blocks are the request's totals after the
     *  grow (not deltas). */
    void on_kv_grow(KvLedger &led, workload::RequestId id,
                    std::size_t new_tokens, std::size_t new_blocks,
                    bool applied, std::size_t mgr_used,
                    std::size_t mgr_total);

    void on_kv_release(KvLedger &led, workload::RequestId id,
                       std::size_t blocks_freed, bool known,
                       std::size_t mgr_used);

    // ------------------------------------------------------------------
    // host swap pool (SwapPool hooks)
    // ------------------------------------------------------------------

    void on_swap_out(const std::string &owner, workload::RequestId id,
                     std::size_t tokens, double bytes, bool accepted,
                     bool already_held, double pool_used,
                     double pool_capacity);

    void on_swap_in(const std::string &owner, workload::RequestId id,
                    bool known, double pool_used);

    // ------------------------------------------------------------------
    // link transfers (hw::Channel hooks)
    // ------------------------------------------------------------------

    void on_transfer_submit(const std::string &chan, std::uint64_t id,
                            double bytes);

    /** @p open: the channel still tracks @p id as in flight. */
    void on_transfer_append(const std::string &chan, std::uint64_t id,
                            double bytes, bool open);

    /** @p begun: when the transfer occupied the link (left the queue);
     *  @p end: the completion time ON THE CALLER'S CLOCK. In a
     *  multi-pod run a pod-owned channel completes on its LP's
     *  simulator while the auditor's timebase is the hub, so the
     *  capacity bound must use the caller's clock, not sim_.now(). */
    void on_transfer_complete(const std::string &chan, std::uint64_t id,
                              double bytes, double begun, double end,
                              double bandwidth, double latency);

    // ------------------------------------------------------------------
    // request lifecycle
    // ------------------------------------------------------------------

    /**
     * Validate the @p r.state -> @p to edge against the lifecycle state
     * machine, then perform the assignment. Components route every
     * state change through here (via audit::transition) so an illegal
     * edge is caught at the assignment site, not at run end.
     */
    void on_transition(workload::Request &r, workload::RequestState to);

    /** True iff @p from -> @p to is a legal fault-free lifecycle edge. */
    static bool allowed(workload::RequestState from,
                        workload::RequestState to);

    // ------------------------------------------------------------------
    // fault injection (fault::FaultInjector)
    // ------------------------------------------------------------------

    /**
     * Admit the crash-recovery lifecycle edges on top of the fault-free
     * table: a live request may be thrown back to WaitingPrefill
     * (recompute) or WaitingDecode (backup restore), or move to Aborted
     * past the retry cap. Off by default so fault-free runs keep the
     * strict table.
     */
    void set_faults_enabled(bool on) { faults_enabled_ = on; }
    bool faults_enabled() const { return faults_enabled_; }

    /**
     * Checked right after Instance::crash() wiped @p owner: a crash
     * frees ALL blocks and host-pool bytes, so both the component
     * counters (@p mgr_used, @p pool_used) and the shadow ledgers must
     * read empty — residue means the eviction leaked.
     */
    void on_instance_crash(const std::string &owner, std::size_t mgr_used,
                           double pool_used);

    // ------------------------------------------------------------------
    // coordinator decisions (paper Algorithm 1 / Dynamic Rescheduling)
    // ------------------------------------------------------------------

    /** Dispatch decided: requires slots >= prompt_tokens. */
    void on_dispatch(workload::RequestId id, std::size_t prompt_tokens,
                     std::size_t slots);

    /** Rescheduling triggered: requires occupancy >= trigger. */
    void on_reschedule(workload::RequestId id, double occupancy,
                       double trigger);

    // ------------------------------------------------------------------
    // replicated control plane (ctrl::ControlPlane)
    // ------------------------------------------------------------------

    /**
     * A replica won an election for @p term. Invariants: at most one
     * leader per term ("ctrl-split-brain"), and one replica's
     * successive election terms strictly increase
     * ("ctrl-term-regression").
     */
    void on_ctrl_elected(std::uint64_t term, std::size_t replica);

    /**
     * The log entry at @p index (carrying @p term / intent @p seq)
     * committed. Invariant: an index commits with exactly one entry —
     * a second commit of the same index with a different (term, seq)
     * is "ctrl-commit-conflict" (re-announcing the identical entry
     * after a leader change is legal Raft and passes).
     */
    void on_ctrl_commit(std::size_t index, std::uint64_t term,
                        std::uint64_t seq);

    /**
     * Intent @p seq (for request @p req) was applied. Invariant:
     * exactly-once — a second apply of the same seq is
     * "ctrl-double-apply" (a request served twice across failover).
     */
    void on_ctrl_apply(std::uint64_t seq, workload::RequestId req);

    // ------------------------------------------------------------------
    // end-of-run accounting
    // ------------------------------------------------------------------

    /**
     * Validate the final request set against the collected counts:
     * every request finished or counted unfinished, finished requests
     * complete and internally consistent (timestamps ordered, phase
     * durations telescoping to e2e), and no shadow-ledger residue maps
     * to a finished request.
     */
    void finish_run(const std::vector<workload::Request> &requests,
                    std::size_t num_finished, std::size_t num_unfinished);

    // ------------------------------------------------------------------
    // introspection
    // ------------------------------------------------------------------

    bool ok() const { return total_violations_ == 0; }
    std::uint64_t events_audited() const { return events_; }
    std::uint64_t total_violations() const { return total_violations_; }
    const std::vector<Violation> &violations() const { return violations_; }

    /** Multi-line human-readable summary of recorded violations. */
    std::string report() const;

    /** CLI fragment replaying this run: "--repro-seed=S [--repro-config=C]". */
    std::string repro_line() const;

    const AuditConfig &config() const { return cfg_; }

  private:
    struct PoolLedger {
        std::unordered_map<workload::RequestId, double> bytes;
        double used = 0.0;
    };
    struct OpenTransfer {
        double bytes = 0.0; ///< total submitted + appended
    };

    /** Advance the monotonic-clock check; counts one audited event. */
    void tick();
    void violate(std::string invariant, workload::RequestId req,
                 std::string detail);
    /** allowed() plus the fault-recovery edges when enabled. */
    bool edge_allowed(workload::RequestState from,
                      workload::RequestState to) const;

    const sim::Simulator &sim_;
    AuditConfig cfg_;
    bool faults_enabled_ = false;
    double last_time_ = 0.0;
    std::uint64_t events_ = 0;
    std::uint64_t total_violations_ = 0;
    std::vector<Violation> violations_;

    // std::map keeps report() ordering deterministic across platforms;
    // its nodes never move, so kv_ledger() references stay valid.
    std::map<std::string, KvLedger> kv_;
    std::map<std::string, PoolLedger> pools_;
    std::map<std::string,
             std::unordered_map<std::uint64_t, OpenTransfer>>
        xfers_;

    // control-plane shadow state
    struct CtrlEntry {
        std::uint64_t term = 0;
        std::uint64_t seq = 0;
    };
    std::map<std::uint64_t, std::size_t> ctrl_leaders_; ///< term -> replica
    std::map<std::size_t, std::uint64_t> ctrl_last_term_; ///< replica -> term
    std::map<std::size_t, CtrlEntry> ctrl_committed_;   ///< index -> entry
    std::map<std::uint64_t, workload::RequestId> ctrl_applied_; ///< seq -> req
};

/**
 * Route a request state change through the auditor when one is
 * attached; plain assignment otherwise (one pointer test when off).
 */
inline void
transition(SimAuditor *a, workload::Request &r, workload::RequestState to)
{
    if (a)
        a->on_transition(r, to);
    else
        r.state = to;
}

} // namespace windserve::audit
