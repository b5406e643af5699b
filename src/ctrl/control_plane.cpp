#include "ctrl/control_plane.hpp"

#include <algorithm>
#include <string>

#include "audit/sim_auditor.hpp"
#include "obs/decision_journal.hpp"

namespace windserve::ctrl {

namespace {

/** Leader AppendEntries period, seconds. */
constexpr double kHeartbeatInterval = 0.05;
/** Election timeout drawn uniformly from [min, max) per arm. */
constexpr double kElectionTimeoutMin = 0.15;
constexpr double kElectionTimeoutMax = 0.30;
/** Base size of a protocol message on the wire. */
constexpr double kMsgBytes = 1024.0;
/** Additional bytes per replicated log entry. */
constexpr double kEntryBytes = 256.0;
/** Max entries shipped per AppendEntries. */
constexpr std::size_t kMaxBatch = 16;

} // namespace

ControlPlane::ControlPlane(sim::Simulator &sim, ControlPlaneConfig cfg)
    : sim_(sim), cfg_(std::move(cfg))
{
    std::size_t n = std::max<std::size_t>(1, cfg_.replicas);
    sim::Rng root(cfg_.seed);
    replicas_.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
        auto r = std::make_unique<Replica>(k, n);
        r->rng = root.fork();
        r->ingress = std::make_unique<hw::SharedChannel>(
            sim_, cfg_.link, "ctrl/" + std::to_string(k));
        r->next_index.assign(n, 1);
        r->match_index.assign(n, 0);
        replicas_.push_back(std::move(r));
    }
}

ControlPlane::~ControlPlane() = default;

void ControlPlane::start()
{
    if (started_)
        return;
    started_ = true;
    for (std::size_t k = 0; k < replicas_.size(); ++k)
        arm_election_timer(k);
}

void ControlPlane::stop()
{
    if (stopped_)
        return;
    stopped_ = true;
    for (auto &r : replicas_) {
        sim_.cancel(r->election_timer);
        sim_.cancel(r->heartbeat_timer);
        r->election_timer.reset();
        r->heartbeat_timer.reset();
    }
}

std::size_t ControlPlane::leader() const
{
    std::size_t best = kNone;
    for (std::size_t k = 0; k < replicas_.size(); ++k) {
        const Replica &r = *replicas_[k];
        if (!r.up || r.elect.role() != Role::Leader)
            continue;
        if (best == kNone ||
            r.elect.term() > replicas_[best]->elect.term())
            best = k;
    }
    return best;
}

std::uint64_t ControlPlane::max_term() const
{
    std::uint64_t t = 0;
    for (const auto &r : replicas_)
        t = std::max(t, r->elect.term());
    return t;
}

void ControlPlane::propose(CommandKind kind, std::uint64_t request,
                           std::function<void()> apply)
{
    std::uint64_t seq = ++seq_counter_;
    pending_.emplace(seq, Intent{kind, request, std::move(apply)});
    if (stopped_)
        return;
    std::size_t l = leader();
    if (l != kNone) {
        append_unappended(l);
        broadcast_append(l);
    }
    // else: the intent waits; the next leader (or the next heartbeat
    // once one exists) appends it via append_unappended().
}

// ---------------------------------------------------------------- faults

void ControlPlane::on_leader_crash(double repair_after, std::uint64_t hint)
{
    if (stopped_)
        return;
    // Prefer the acting (reachable) leader; fall back to any up
    // leader, then to the hinted replica.
    std::size_t victim = kNone;
    for (std::size_t k = 0; k < replicas_.size(); ++k) {
        const Replica &r = *replicas_[k];
        if (!r.up || r.elect.role() != Role::Leader)
            continue;
        if (victim == kNone ||
            (alive(k) && !alive(victim)) ||
            (alive(k) == alive(victim) &&
             r.elect.term() > replicas_[victim]->elect.term()))
            victim = k;
    }
    if (victim == kNone)
        victim = static_cast<std::size_t>(hint % replicas_.size());
    Replica &r = *replicas_[victim];
    if (!r.up)
        return; // already down: the fault is absorbed
    ++leader_crashes_;
    bool was_acting = victim == leader() && alive(victim);
    r.up = false;
    sim_.cancel(r.election_timer);
    sim_.cancel(r.heartbeat_timer);
    r.election_timer.reset();
    r.heartbeat_timer.reset();
    if (was_acting)
        begin_failover_clock();
    sim::SourceScope src(sim_, "ctrl");
    sim_.schedule(std::max(0.0, repair_after), [this, victim] {
        if (stopped_)
            return;
        Replica &rr = *replicas_[victim];
        rr.up = true;
        // the log survives (stable storage); rejoin as follower
        rr.elect.become_follower();
        arm_election_timer(victim);
    });
}

void ControlPlane::on_partition(double duration, std::uint64_t hint)
{
    if (stopped_ || replicas_.empty())
        return;
    std::size_t victim = static_cast<std::size_t>(hint % replicas_.size());
    Replica &r = *replicas_[victim];
    ++partitions_;
    bool was_acting = victim == leader() && alive(victim);
    r.partitioned_until =
        std::max(r.partitioned_until, sim_.now() + std::max(0.0, duration));
    if (was_acting)
        begin_failover_clock();
}

void ControlPlane::begin_failover_clock()
{
    if (failover_pending_)
        return;
    failover_pending_ = true;
    failover_start_ = sim_.now();
}

// ------------------------------------------------------------- messaging

void ControlPlane::send(std::size_t from, std::size_t to,
                        double extra_bytes, std::function<void()> deliver)
{
    if (stopped_)
        return;
    if (!alive(from)) {
        ++messages_dropped_;
        return;
    }
    ++messages_sent_;
    sim::SourceScope src(sim_, "ctrl");
    replicas_[to]->ingress->submit(
        kMsgBytes + extra_bytes,
        [this, to, deliver = std::move(deliver)] {
            if (stopped_ || !alive(to)) {
                ++messages_dropped_;
                return;
            }
            deliver();
        });
}

// -------------------------------------------------------------- election

void ControlPlane::arm_election_timer(std::size_t k)
{
    if (stopped_)
        return;
    Replica &r = *replicas_[k];
    sim_.cancel(r.election_timer);
    double delay = r.rng.uniform(kElectionTimeoutMin, kElectionTimeoutMax);
    sim::SourceScope src(sim_, "ctrl");
    r.election_timer =
        sim_.schedule(delay, [this, k] { on_election_timeout(k); });
}

void ControlPlane::on_election_timeout(std::size_t k)
{
    if (stopped_)
        return;
    Replica &r = *replicas_[k];
    if (!r.up || r.elect.role() == Role::Leader)
        return;
    std::uint64_t term = r.elect.start_candidacy();
    if (r.elect.majority() <= 1) {
        become_leader(k);
        return;
    }
    arm_election_timer(k); // re-arm: a split vote retries in a new term
    std::size_t last_index = r.log.last_index();
    std::uint64_t last_term = r.log.last_term();
    for (std::size_t j = 0; j < replicas_.size(); ++j) {
        if (j == k)
            continue;
        send(k, j, 0.0, [this, j, term, k, last_term, last_index] {
            deliver_vote_request(j, term, k, last_term, last_index);
        });
    }
}

void ControlPlane::deliver_vote_request(std::size_t k, std::uint64_t term,
                                        std::size_t candidate,
                                        std::uint64_t cand_last_term,
                                        std::size_t cand_last_index)
{
    Replica &r = *replicas_[k];
    maybe_step_down(k, term);
    bool granted = term == r.elect.term() &&
                   r.log.up_to_date(cand_last_term, cand_last_index) &&
                   r.elect.try_grant_vote(term, candidate);
    if (granted)
        arm_election_timer(k); // granting a vote defers own candidacy
    std::uint64_t reply_term = r.elect.term();
    send(k, candidate, 0.0, [this, candidate, reply_term, granted] {
        deliver_vote_reply(candidate, reply_term, granted);
    });
}

void ControlPlane::deliver_vote_reply(std::size_t k, std::uint64_t term,
                                      bool granted)
{
    Replica &r = *replicas_[k];
    maybe_step_down(k, term);
    if (granted && r.elect.record_vote(term))
        become_leader(k);
}

void ControlPlane::become_leader(std::size_t k)
{
    Replica &r = *replicas_[k];
    r.elect.become_leader();
    sim_.cancel(r.election_timer);
    r.election_timer.reset();
    std::size_t n = replicas_.size();
    r.next_index.assign(n, r.log.last_index() + 1);
    r.match_index.assign(n, 0);
    ++elections_;
    std::uint64_t term = r.elect.term();
    if (audit_)
        audit_->on_ctrl_elected(term, k);
    if (journal_) {
        obs::Decision d;
        d.time = sim_.now();
        d.kind = obs::DecisionKind::Failover;
        d.request = 0;
        for (std::size_t j = 0; j < n; ++j) {
            obs::DecisionOption o;
            o.target = "replica" + std::to_string(j);
            o.feasible = alive(j);
            o.scores.emplace_back("term",
                                  static_cast<double>(
                                      replicas_[j]->elect.term()));
            d.candidates.push_back(std::move(o));
        }
        d.chosen = "replica" + std::to_string(k);
        d.reason =
            elections_ == 1 ? "initial-election" : "leader-failover";
        journal_->record(std::move(d));
    }
    // NoOp barrier: commits the new term (and, transitively, every
    // earlier entry) as soon as a majority acknowledges it.
    r.log.append(LogEntry{term, 0, CommandKind::NoOp, 0});
    append_unappended(k);
    advance_commit(k); // immediate for a 1-replica majority
    broadcast_append(k);
    arm_heartbeat(k);
}

void ControlPlane::maybe_step_down(std::size_t k, std::uint64_t term)
{
    Replica &r = *replicas_[k];
    bool was_leader = r.elect.role() == Role::Leader;
    if (r.elect.observe_term(term) && was_leader) {
        sim_.cancel(r.heartbeat_timer);
        r.heartbeat_timer.reset();
        arm_election_timer(k);
    }
}

// ----------------------------------------------------------- replication

void ControlPlane::arm_heartbeat(std::size_t k)
{
    if (stopped_)
        return;
    Replica &r = *replicas_[k];
    sim_.cancel(r.heartbeat_timer);
    sim::SourceScope src(sim_, "ctrl");
    r.heartbeat_timer =
        sim_.schedule(kHeartbeatInterval, [this, k] { on_heartbeat(k); });
}

void ControlPlane::on_heartbeat(std::size_t k)
{
    if (stopped_)
        return;
    Replica &r = *replicas_[k];
    if (!r.up || r.elect.role() != Role::Leader)
        return;
    ++heartbeats_;
    append_unappended(k);
    broadcast_append(k);
    arm_heartbeat(k);
}

void ControlPlane::append_unappended(std::size_t k)
{
    Replica &r = *replicas_[k];
    if (r.elect.role() != Role::Leader)
        return;
    std::uint64_t term = r.elect.term();
    for (auto &[seq, intent] : pending_) {
        if (intent.appended_term >= term)
            continue;
        if (intent.appended_term > 0)
            ++reproposals_; // re-proposed across a leader change
        intent.appended_term = term;
        r.log.append(LogEntry{term, seq, intent.kind, intent.request});
    }
}

void ControlPlane::broadcast_append(std::size_t k)
{
    for (std::size_t j = 0; j < replicas_.size(); ++j)
        if (j != k)
            send_append_to(k, j);
}

void ControlPlane::send_append_to(std::size_t k, std::size_t peer)
{
    Replica &r = *replicas_[k];
    std::size_t prev = r.next_index[peer] - 1;
    std::uint64_t prev_term = r.log.term_at(prev);
    std::vector<LogEntry> entries =
        r.log.suffix(r.next_index[peer], kMaxBatch);
    double extra = kEntryBytes * static_cast<double>(entries.size());
    std::uint64_t term = r.elect.term();
    std::size_t commit = r.commit_index;
    send(k, peer, extra,
         [this, peer, term, k, prev, prev_term,
          entries = std::move(entries), commit]() mutable {
             deliver_append(peer, term, k, prev, prev_term,
                            std::move(entries), commit);
         });
}

void ControlPlane::deliver_append(std::size_t k, std::uint64_t term,
                                  std::size_t leader,
                                  std::size_t prev_index,
                                  std::uint64_t prev_term,
                                  std::vector<LogEntry> entries,
                                  std::size_t leader_commit)
{
    Replica &r = *replicas_[k];
    if (term < r.elect.term()) {
        std::uint64_t my_term = r.elect.term();
        send(k, leader, 0.0, [this, leader, k, my_term] {
            deliver_append_reply(leader, k, my_term, false, 0);
        });
        return;
    }
    maybe_step_down(k, term);
    if (r.elect.role() == Role::Candidate)
        r.elect.become_follower(); // a legitimate leader exists
    arm_election_timer(k);
    bool ok = prev_index <= r.log.last_index() &&
              r.log.term_at(prev_index) == prev_term;
    std::size_t match = 0;
    if (ok) {
        std::size_t idx = prev_index;
        for (const LogEntry &e : entries) {
            ++idx;
            if (idx <= r.log.last_index() && r.log.term_at(idx) != e.term)
                r.log.truncate_from(idx);
            if (idx > r.log.last_index())
                r.log.append(e);
        }
        match = prev_index + entries.size();
        r.commit_index = std::max(
            r.commit_index, std::min(leader_commit, r.log.last_index()));
    }
    std::uint64_t my_term = r.elect.term();
    send(k, leader, 0.0, [this, leader, k, my_term, ok, match] {
        deliver_append_reply(leader, k, my_term, ok, match);
    });
}

void ControlPlane::deliver_append_reply(std::size_t k, std::size_t follower,
                                        std::uint64_t term, bool success,
                                        std::size_t match)
{
    Replica &r = *replicas_[k];
    if (term > r.elect.term()) {
        maybe_step_down(k, term);
        return;
    }
    if (r.elect.role() != Role::Leader)
        return;
    if (success) {
        r.match_index[follower] = std::max(r.match_index[follower], match);
        r.next_index[follower] =
            std::max(r.next_index[follower], match + 1);
        advance_commit(k);
    } else {
        r.next_index[follower] =
            std::max<std::size_t>(1, r.next_index[follower] - 1);
    }
}

void ControlPlane::advance_commit(std::size_t k)
{
    Replica &r = *replicas_[k];
    std::uint64_t term = r.elect.term();
    std::size_t majority = r.elect.majority();
    std::size_t best = r.commit_index;
    for (std::size_t i = r.log.last_index(); i > r.commit_index; --i) {
        if (r.log.term_at(i) < term)
            break; // only current-term entries commit by counting
        if (r.log.term_at(i) > term)
            continue;
        std::size_t votes = 1; // self
        for (std::size_t j = 0; j < replicas_.size(); ++j)
            if (j != k && r.match_index[j] >= i)
                ++votes;
        if (votes >= majority) {
            best = i;
            break;
        }
    }
    if (best > r.commit_index)
        commit_to(k, best);
}

void ControlPlane::commit_to(std::size_t k, std::size_t index)
{
    Replica &r = *replicas_[k];
    while (r.commit_index < index) {
        std::size_t idx = ++r.commit_index;
        const LogEntry &e = r.log.at(idx);
        ++commits_;
        if (audit_)
            audit_->on_ctrl_commit(idx, e.term, e.seq);
        apply_entry(e);
    }
    if (failover_pending_) {
        // first commit advance after losing the leader: the control
        // plane can dispatch again
        failover_latency_.add(sim_.now() - failover_start_);
        ++failovers_;
        failover_pending_ = false;
    }
}

void ControlPlane::apply_entry(const LogEntry &e)
{
    if (e.seq == 0)
        return; // NoOp barrier
    auto it = pending_.find(e.seq);
    if (it == pending_.end())
        return; // duplicate entry for an already-applied intent
    // Erase before running the closure: a reentrant propose() then
    // sees only unapplied intents, and @p e (a log reference) is not
    // touched again once the closure may have grown the log.
    auto apply = std::move(it->second.apply);
    pending_.erase(it);
    ++applies_;
    if (audit_)
        audit_->on_ctrl_apply(e.seq, e.request);
    if (apply)
        apply();
}

} // namespace windserve::ctrl
