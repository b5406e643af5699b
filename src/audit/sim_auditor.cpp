#include "audit/sim_auditor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "simcore/log.hpp"
#include "simcore/simulator.hpp"

namespace windserve::audit {

using workload::Request;
using workload::RequestId;
using workload::RequestState;

namespace {

/** Slack for floating-point time/byte comparisons, seconds. */
constexpr double kTimeTolerance = 1e-6;

} // namespace

SimAuditor::SimAuditor(const sim::Simulator &sim, AuditConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)), last_time_(sim.now())
{}

void
SimAuditor::tick()
{
    ++events_;
    double now = sim_.now();
    if (now + kTimeTolerance < last_time_) {
        std::ostringstream os;
        os << "event at t=" << now << " after t=" << last_time_;
        violate("monotonic-time", 0, os.str());
    }
    last_time_ = std::max(last_time_, now);
}

void
SimAuditor::violate(std::string invariant, RequestId req, std::string detail)
{
    Violation v{std::move(invariant), std::move(detail), sim_.now(), req};
    ++total_violations_;
    // With fail_fast off, store the first 64 violations.
    if (violations_.size() < 64)
        violations_.push_back(v);
    WS_LOG_AT(Error, "audit", sim_.now())
        << v.invariant << ": " << v.detail << " (req " << v.req << ")";
    if (cfg_.fail_fast) {
        std::ostringstream os;
        os << "audit invariant '" << v.invariant << "' violated: "
           << v.detail << " (req " << v.req << ", t=" << v.sim_time
           << "s)\n  repro: " << repro_line();
        throw InvariantViolation(std::move(v), os.str());
    }
}

// ---------------------------------------------------------------------
// KV block ledger
// ---------------------------------------------------------------------

KvLedger &
SimAuditor::kv_ledger(const std::string &owner)
{
    return kv_.try_emplace(owner, owner).first->second;
}

void
SimAuditor::on_kv_alloc(KvLedger &led, RequestId id,
                        std::size_t tokens, std::size_t blocks, bool applied,
                        std::size_t mgr_used, std::size_t mgr_total)
{
    tick();
    if (led.used_ != mgr_used) {
        std::ostringstream os;
        os << led.owner_ << ": shadow used " << led.used_
           << " != manager used " << mgr_used;
        violate("kv-conservation", id, os.str());
    }
    if (led.blocks_.count(id)) {
        std::ostringstream os;
        os << led.owner_ << ": allocate of " << tokens
           << " tokens while already holding " << led.blocks_[id]
           << " blocks";
        violate("kv-double-alloc", id, os.str());
        return;
    }
    if (!applied)
        return; // rejected for capacity; nothing changed
    led.blocks_[id] = blocks;
    led.used_ += blocks;
    if (led.used_ > mgr_total) {
        std::ostringstream os;
        os << led.owner_ << ": " << led.used_ << " blocks allocated of "
           << mgr_total;
        violate("kv-overcommit", id, os.str());
    }
}

void
SimAuditor::on_kv_grow(KvLedger &led, RequestId id,
                       std::size_t new_tokens, std::size_t new_blocks,
                       bool applied, std::size_t mgr_used,
                       std::size_t mgr_total)
{
    tick();
    if (led.used_ != mgr_used) {
        std::ostringstream os;
        os << led.owner_ << ": shadow used " << led.used_
           << " != manager used " << mgr_used;
        violate("kv-conservation", id, os.str());
    }
    auto it = led.blocks_.find(id);
    if (it == led.blocks_.end()) {
        std::ostringstream os;
        os << led.owner_ << ": grow to " << new_tokens
           << " tokens of an id holding nothing";
        violate("kv-grow-unknown", id, os.str());
        return;
    }
    if (new_blocks < it->second) {
        std::ostringstream os;
        os << led.owner_ << ": grow shrank " << it->second << " -> "
           << new_blocks << " blocks";
        violate("kv-shrink", id, os.str());
        return;
    }
    if (!applied)
        return;
    led.used_ += new_blocks - it->second;
    it->second = new_blocks;
    if (led.used_ > mgr_total) {
        std::ostringstream os;
        os << led.owner_ << ": " << led.used_ << " blocks allocated of "
           << mgr_total;
        violate("kv-overcommit", id, os.str());
    }
}

void
SimAuditor::on_kv_release(KvLedger &led, RequestId id,
                          std::size_t blocks_freed, bool known,
                          std::size_t mgr_used)
{
    tick();
    if (led.used_ != mgr_used) {
        std::ostringstream os;
        os << led.owner_ << ": shadow used " << led.used_
           << " != manager used " << mgr_used;
        violate("kv-conservation", id, os.str());
    }
    auto it = led.blocks_.find(id);
    if (it == led.blocks_.end() || !known) {
        std::ostringstream os;
        os << led.owner_ << ": release of an id holding nothing (shadow "
           << (it == led.blocks_.end() ? "agrees" : "disagrees") << ")";
        violate("kv-double-free", id, os.str());
        if (it == led.blocks_.end())
            return;
    }
    if (known && it->second != blocks_freed) {
        std::ostringstream os;
        os << led.owner_ << ": manager freed " << blocks_freed
           << " blocks, shadow recorded " << it->second;
        violate("kv-conservation", id, os.str());
    }
    led.used_ -= it->second;
    led.blocks_.erase(it);
}

// ---------------------------------------------------------------------
// host swap pool
// ---------------------------------------------------------------------

void
SimAuditor::on_swap_out(const std::string &owner, RequestId id,
                        std::size_t tokens, double bytes, bool accepted,
                        bool already_held, double pool_used,
                        double pool_capacity)
{
    tick();
    PoolLedger &led = pools_[owner];
    if (std::abs(led.used - pool_used) > 1.0) {
        std::ostringstream os;
        os << owner << ": shadow pool " << led.used
           << "B != pool counter " << pool_used << "B";
        violate("swap-conservation", id, os.str());
    }
    if (already_held || led.bytes.count(id)) {
        std::ostringstream os;
        os << owner << ": swap-out of " << tokens
           << " tokens while already swapped";
        violate("swap-double-out", id, os.str());
        return;
    }
    if (!accepted)
        return; // pool full; caller must keep the GPU copy
    led.bytes[id] = bytes;
    led.used += bytes;
    if (led.used > pool_capacity + 1.0) {
        std::ostringstream os;
        os << owner << ": pool holds " << led.used << "B of "
           << pool_capacity << "B";
        violate("swap-overcommit", id, os.str());
    }
}

void
SimAuditor::on_swap_in(const std::string &owner, RequestId id, bool known,
                       double pool_used)
{
    tick();
    PoolLedger &led = pools_[owner];
    if (std::abs(led.used - pool_used) > 1.0) {
        std::ostringstream os;
        os << owner << ": shadow pool " << led.used
           << "B != pool counter " << pool_used << "B";
        violate("swap-conservation", id, os.str());
    }
    auto it = led.bytes.find(id);
    if (it == led.bytes.end() || !known) {
        std::ostringstream os;
        os << owner << ": swap-in of an id not resident in the pool";
        violate("swap-in-unknown", id, os.str());
        if (it == led.bytes.end())
            return;
    }
    led.used -= it->second;
    led.bytes.erase(it);
}

// ---------------------------------------------------------------------
// link transfers
// ---------------------------------------------------------------------

void
SimAuditor::on_transfer_submit(const std::string &chan, std::uint64_t id,
                               double bytes)
{
    tick();
    auto &open = xfers_[chan];
    if (open.count(id)) {
        std::ostringstream os;
        os << chan << ": transfer id " << id << " submitted twice";
        violate("xfer-duplicate-id", 0, os.str());
        return;
    }
    open[id] = OpenTransfer{bytes};
}

void
SimAuditor::on_transfer_append(const std::string &chan, std::uint64_t id,
                               double bytes, bool open)
{
    tick();
    auto &chan_open = xfers_[chan];
    auto it = chan_open.find(id);
    if (it == chan_open.end() || !open) {
        std::ostringstream os;
        os << chan << ": append of " << bytes << "B to "
           << (it == chan_open.end() ? "unknown" : "completed")
           << " transfer id " << id;
        violate("xfer-append-closed", 0, os.str());
        return;
    }
    it->second.bytes += bytes;
}

void
SimAuditor::on_transfer_complete(const std::string &chan, std::uint64_t id,
                                 double bytes, double begun, double end,
                                 double bandwidth, double latency)
{
    tick();
    auto &chan_open = xfers_[chan];
    auto it = chan_open.find(id);
    if (it == chan_open.end()) {
        std::ostringstream os;
        os << chan << ": completion of unknown transfer id " << id;
        violate("xfer-unknown-complete", 0, os.str());
        return;
    }
    // Byte conservation: everything submitted/appended arrives.
    double tracked = it->second.bytes;
    double tol = 1.0 + 1e-9 * std::max(tracked, bytes);
    if (std::abs(tracked - bytes) > tol) {
        std::ostringstream os;
        os << chan << ": transfer id " << id << " completed with "
           << bytes << "B, " << tracked << "B were submitted";
        violate("xfer-byte-conservation", 0, os.str());
    }
    // Link capacity: the wire cannot beat latency + bytes/bandwidth
    // from the moment the transfer occupied the link. Appended bytes
    // only extend the same slot, so the bound stays valid. The caller
    // passes both endpoints of the interval from its OWN clock — in a
    // multi-pod run sim_.now() is the hub clock, which lags a pod-side
    // completion by up to the lookahead window.
    double elapsed = end - begun;
    double min_time = latency + bytes / bandwidth;
    double ttol = kTimeTolerance + 1e-9 * std::max(elapsed, min_time);
    if (elapsed + ttol < min_time) {
        std::ostringstream os;
        os << chan << ": transfer id " << id << " moved " << bytes
           << "B in " << elapsed << "s, minimum is " << min_time << "s";
        violate("xfer-capacity", 0, os.str());
    }
    chan_open.erase(it);
}

// ---------------------------------------------------------------------
// request lifecycle
// ---------------------------------------------------------------------

bool
SimAuditor::allowed(RequestState from, RequestState to)
{
    // Self-transitions are re-queues/re-admissions and legal everywhere
    // except the terminal states (a double-finish is exactly the bug to
    // catch).
    if (from == to) {
        return from != RequestState::Finished &&
               from != RequestState::Aborted;
    }
    switch (from) {
      case RequestState::Created:
        return to == RequestState::WaitingPrefill ||
               to == RequestState::WaitingDecode;
      case RequestState::WaitingPrefill:
        return to == RequestState::Prefilling;
      case RequestState::Prefilling:
        return to == RequestState::Transferring ||
               to == RequestState::WaitingDecode ||
               to == RequestState::Finished;
      case RequestState::Transferring:
        return to == RequestState::WaitingDecode;
      case RequestState::WaitingDecode:
        // Migrating directly out of WaitingDecode is legal: an admitted
        // group member whose KV is resident may be picked as a
        // migration victim between passes, before its first step.
        return to == RequestState::Decoding ||
               to == RequestState::SwappedOut ||
               to == RequestState::Migrating;
      case RequestState::Decoding:
        return to == RequestState::Finished ||
               to == RequestState::SwappedOut ||
               to == RequestState::Migrating ||
               to == RequestState::WaitingDecode;
      case RequestState::Migrating:
        return to == RequestState::WaitingDecode ||
               to == RequestState::Decoding ||
               to == RequestState::Finished;
      case RequestState::SwappedOut:
        return to == RequestState::WaitingDecode;
      case RequestState::Finished:
      case RequestState::Aborted:
        return false;
    }
    return false;
}

bool
SimAuditor::edge_allowed(RequestState from, RequestState to) const
{
    if (allowed(from, to))
        return true;
    if (!faults_enabled_)
        return false;
    // Fault-recovery edges: a crash victim re-enters the global
    // scheduler from whatever live state the crash caught it in —
    // recompute lands in WaitingPrefill, a backup restore lands in
    // WaitingDecode — and any live request may be aborted once the
    // retry cap is exceeded. The terminal states stay terminal.
    if (from == RequestState::Finished || from == RequestState::Aborted)
        return false;
    return to == RequestState::WaitingPrefill ||
           to == RequestState::WaitingDecode ||
           to == RequestState::Aborted;
}

void
SimAuditor::on_transition(Request &r, RequestState to)
{
    tick();
    if (!edge_allowed(r.state, to)) {
        std::ostringstream os;
        os << "illegal edge " << workload::to_string(r.state) << " -> "
           << workload::to_string(to);
        violate("lifecycle-transition", r.id, os.str());
    }
    r.state = to;
}

void
SimAuditor::on_instance_crash(const std::string &owner, std::size_t mgr_used,
                              double pool_used)
{
    tick();
    KvLedger &led = kv_.try_emplace(owner, owner).first->second;
    if (mgr_used != 0 || led.used_ != 0 || !led.blocks_.empty()) {
        std::ostringstream os;
        os << owner << ": post-crash residue — manager " << mgr_used
           << " blocks, shadow " << led.used_ << " blocks over "
           << led.blocks_.size() << " holders";
        violate("crash-kv-leak", 0, os.str());
    }
    led.blocks_.clear();
    led.used_ = 0;
    PoolLedger &pled = pools_[owner];
    if (pool_used > 1.0 || pled.used > 1.0 || !pled.bytes.empty()) {
        std::ostringstream os;
        os << owner << ": post-crash host-pool residue — pool "
           << pool_used << "B, shadow " << pled.used << "B over "
           << pled.bytes.size() << " holders";
        violate("crash-swap-leak", 0, os.str());
    }
    pled.bytes.clear();
    pled.used = 0.0;
}

// ---------------------------------------------------------------------
// coordinator decisions
// ---------------------------------------------------------------------

void
SimAuditor::on_dispatch(RequestId id, std::size_t prompt_tokens,
                        std::size_t slots)
{
    tick();
    if (slots < prompt_tokens) {
        std::ostringstream os;
        os << "dispatched " << prompt_tokens << " prompt tokens into "
           << slots << " available slots";
        violate("dispatch-slots", id, os.str());
    }
}

void
SimAuditor::on_reschedule(RequestId id, double occupancy, double trigger)
{
    tick();
    if (occupancy + 1e-9 < trigger) {
        std::ostringstream os;
        os << "rescheduled at occupancy " << occupancy
           << " below trigger " << trigger;
        violate("reschedule-trigger", id, os.str());
    }
}

// ---------------------------------------------------------------------
// replicated control plane
// ---------------------------------------------------------------------

void
SimAuditor::on_ctrl_elected(std::uint64_t term, std::size_t replica)
{
    tick();
    auto [it, inserted] = ctrl_leaders_.emplace(term, replica);
    if (!inserted && it->second != replica) {
        std::ostringstream os;
        os << "replica " << replica << " elected in term " << term
           << " already led by replica " << it->second;
        violate("ctrl-split-brain", 0, os.str());
    }
    auto [lt, first] = ctrl_last_term_.emplace(replica, term);
    if (!first) {
        if (term <= lt->second) {
            std::ostringstream os;
            os << "replica " << replica << " re-elected in term " << term
               << " after leading term " << lt->second;
            violate("ctrl-term-regression", 0, os.str());
        }
        lt->second = term;
    }
}

void
SimAuditor::on_ctrl_commit(std::size_t index, std::uint64_t term,
                           std::uint64_t seq)
{
    tick();
    auto [it, inserted] = ctrl_committed_.emplace(index, CtrlEntry{term, seq});
    if (!inserted && (it->second.term != term || it->second.seq != seq)) {
        std::ostringstream os;
        os << "log index " << index << " committed as term " << term
           << "/seq " << seq << " but was already committed as term "
           << it->second.term << "/seq " << it->second.seq;
        violate("ctrl-commit-conflict", 0, os.str());
    }
}

void
SimAuditor::on_ctrl_apply(std::uint64_t seq, RequestId req)
{
    tick();
    auto [it, inserted] = ctrl_applied_.emplace(seq, req);
    if (!inserted) {
        std::ostringstream os;
        os << "intent seq " << seq << " applied twice (requests "
           << it->second << " and " << req << ")";
        violate("ctrl-double-apply", req, os.str());
    }
}

// ---------------------------------------------------------------------
// end-of-run accounting
// ---------------------------------------------------------------------

void
SimAuditor::finish_run(const std::vector<Request> &requests,
                       std::size_t num_finished, std::size_t num_unfinished)
{
    tick();
    std::size_t finished_states = 0;
    // Terminal = Finished or Aborted: neither may leave ledger residue.
    std::unordered_set<RequestId> terminal_ids;
    for (const Request &r : requests) {
        if (r.finished()) {
            ++finished_states;
            terminal_ids.insert(r.id);
        } else if (r.state == RequestState::Aborted) {
            terminal_ids.insert(r.id);
        }
        if (r.generated > r.output_tokens) {
            std::ostringstream os;
            os << "generated " << r.generated << " of " << r.output_tokens
               << " output tokens";
            violate("token-overrun", r.id, os.str());
        }
        if (!r.finished())
            continue;
        if (r.generated != r.output_tokens) {
            std::ostringstream os;
            os << "finished with " << r.generated << " of "
               << r.output_tokens << " output tokens";
            violate("finish-incomplete", r.id, os.str());
        }
        // A crash survivor's stamps mix incarnations: first_token_time
        // is first-ever (client-observed TTFT) while the re-dispatch
        // re-stamped the phases around it, so the canonical ordering
        // genuinely does not hold. Every stamp still postdates arrival.
        if (r.incarnation > 0) {
            const double stamps[] = {
                r.prefill_enqueue_time, r.prefill_start_time,
                r.first_token_time,     r.transfer_done_time,
                r.decode_enqueue_time,  r.decode_start_time,
                r.finish_time,
            };
            for (double s : stamps) {
                if (s != workload::kNoTime &&
                    s + kTimeTolerance < r.arrival_time) {
                    violate("lifecycle-timestamps", r.id,
                            "stamp predates arrival on crash survivor");
                }
            }
            if (r.finish_time == workload::kNoTime) {
                violate("finish-unstamped", r.id,
                        "finished without a finish_time");
            }
            continue;
        }
        // Timestamp chain in canonical lifecycle order; absent stamps
        // (kNoTime) drop out. The present ones must be non-decreasing,
        // and the phase durations then telescope to the e2e latency.
        const double chain[] = {
            r.arrival_time,       r.prefill_enqueue_time,
            r.prefill_start_time, r.first_token_time,
            r.transfer_done_time, r.decode_enqueue_time,
            r.decode_start_time,  r.finish_time,
        };
        static const char *const names[] = {
            "arrival",       "prefill_enqueue", "prefill_start",
            "first_token",   "transfer_done",   "decode_enqueue",
            "decode_start",  "finish",
        };
        double prev = r.arrival_time;
        const char *prev_name = names[0];
        double phase_sum = 0.0;
        for (std::size_t i = 1; i < 8; ++i) {
            if (chain[i] == workload::kNoTime)
                continue;
            if (chain[i] + kTimeTolerance < prev) {
                std::ostringstream os;
                os << names[i] << "=" << chain[i] << " before "
                   << prev_name << "=" << prev;
                violate("lifecycle-timestamps", r.id, os.str());
            }
            phase_sum += std::max(0.0, chain[i] - prev);
            prev = chain[i];
            prev_name = names[i];
        }
        if (r.finish_time == workload::kNoTime) {
            violate("finish-unstamped", r.id,
                    "finished without a finish_time");
        } else {
            double e2e = r.finish_time - r.arrival_time;
            double tol = kTimeTolerance + 1e-9 * std::abs(e2e);
            if (std::abs(phase_sum - e2e) > tol) {
                std::ostringstream os;
                os << "phase durations sum to " << phase_sum
                   << "s, e2e is " << e2e << "s";
                violate("phase-telescoping", r.id, os.str());
            }
        }
    }

    if (finished_states != num_finished ||
        num_finished + num_unfinished != requests.size()) {
        std::ostringstream os;
        os << requests.size() << " requests, " << finished_states
           << " in Finished state, reported " << num_finished
           << " finished + " << num_unfinished << " unfinished";
        violate("run-accounting", 0, os.str());
    }

    // No residue of a terminal (finished or aborted) request may remain
    // in any ledger: its KV blocks and host-pool bytes must have been
    // returned.
    for (const auto &[owner, led] : kv_) {
        for (const auto &[id, blocks] : led.blocks_) {
            if (terminal_ids.count(id)) {
                std::ostringstream os;
                os << owner << ": terminal request still holds " << blocks
                   << " KV blocks";
                violate("kv-leak", id, os.str());
            }
        }
    }
    for (const auto &[owner, led] : pools_) {
        for (const auto &[id, bytes] : led.bytes) {
            if (terminal_ids.count(id)) {
                std::ostringstream os;
                os << owner << ": terminal request still holds " << bytes
                   << "B of host pool";
                violate("swap-leak", id, os.str());
            }
        }
    }
}

// ---------------------------------------------------------------------
// introspection
// ---------------------------------------------------------------------

std::string
SimAuditor::report() const
{
    std::ostringstream os;
    if (ok()) {
        os << "audit: OK (" << events_ << " events audited)\n";
        return os.str();
    }
    os << "audit: " << total_violations_ << " violation(s) in " << events_
       << " events\n";
    for (const Violation &v : violations_) {
        os << "  [" << v.invariant << "] t=" << v.sim_time << " req="
           << v.req << ": " << v.detail << "\n";
    }
    os << "  repro: " << repro_line() << "\n";
    return os.str();
}

std::string
SimAuditor::repro_line() const
{
    std::ostringstream os;
    os << "--repro-seed=" << cfg_.repro_seed;
    if (!cfg_.repro_config.empty())
        os << " --repro-config=" << cfg_.repro_config;
    os << cfg_.repro_extra;
    return os.str();
}

} // namespace windserve::audit
