/**
 * @file
 * Scheduler decision journal: WHY each dynamic-scheduling choice fell
 * the way it did.
 *
 * WindServe's contribution is stream-based dynamic scheduling — per-
 * request prefill dispatch (Algorithm 1), memory-pressure rescheduling
 * (migration), and backup-aware re-dispatch after faults. Aggregate
 * counters say how often each fired; the journal records each decision
 * with the candidate set considered, the loads/scores that drove it and
 * the chosen target, so a post-run query can answer "why did request
 * 1042 prefill on the decode instance?" without rerunning.
 *
 * Entries are recorded by the deciding component (a nullable pointer,
 * the same zero-cost-off pattern as tracing) and kept in time order,
 * so the journal is a pure function of (config, workload) —
 * byte-identical at any `--jobs N`. Export targets: a flat CSV (one
 * row per candidate) and a JSON document (one object per decision).
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace windserve::obs {

/** Which scheduling mechanism produced the entry. */
enum class DecisionKind {
    Dispatch,   ///< Algorithm 1: where a new request's prefill runs
    Reschedule, ///< dynamic rescheduling under decode memory pressure
    Redispatch, ///< post-fault re-dispatch of a crash victim
    Failover,   ///< control-plane leader election (replica takeover)
};

const char *to_string(DecisionKind k);

/** One candidate target the scheduler weighed. */
struct DecisionOption {
    std::string target; ///< e.g. "prefill", "decode", "resume-backup"
    bool feasible = true;
    /** The numbers that scored this candidate (name -> value). */
    std::vector<std::pair<std::string, double>> scores;
};

/** One recorded decision. */
struct Decision {
    double time = 0.0;
    DecisionKind kind = DecisionKind::Dispatch;
    std::uint64_t request = 0;
    std::vector<DecisionOption> candidates;
    std::string chosen; ///< target of the winning candidate ("" = none)
    std::string reason; ///< machine-readable why (e.g. "ttft_over_thrd")
};

/** See file comment. */
class DecisionJournal
{
  public:
    DecisionJournal() = default;
    DecisionJournal(const DecisionJournal &) = delete;
    DecisionJournal &operator=(const DecisionJournal &) = delete;

    /**
     * Insert @p d after every entry not later than it. Entries come in
     * time order, so this is an append, except in a multi-pod run when
     * one pod records ahead of another inside an LP window
     * (simcore/lp.hpp); equal times keep record order.
     */
    void record(Decision d);

    const std::vector<Decision> &entries() const { return entries_; }
    std::size_t size() const { return entries_.size(); }

    /** Entries of one kind. */
    std::size_t count(DecisionKind k) const;

    /** All decisions that touched @p request, in simulation order. */
    std::vector<const Decision *> for_request(std::uint64_t request) const;

    /** Flat CSV, one row per (decision, candidate):
     *  `time,kind,request,chosen,reason,candidate,feasible,scores`
     *  with scores packed `name=value` separated by `;`. */
    std::string csv() const;

    /** JSON document: `{"decisions": [...]}`. */
    std::string json() const;

  private:
    std::vector<Decision> entries_;
};

} // namespace windserve::obs
