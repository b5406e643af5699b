#include "transfer/migration.hpp"

#include <algorithm>

#include "audit/sim_auditor.hpp"
#include "obs/trace_recorder.hpp"
#include "simcore/log.hpp"

namespace windserve::transfer {

using workload::Request;
using workload::RequestState;

MigrationManager::MigrationManager(sim::Simulator &sim,
                                   KvTransferManager &xfer,
                                   engine::Instance &source,
                                   engine::Instance &target,
                                   kvcache::BackupRegistry &backups,
                                   MigrationConfig cfg)
    : sim_(sim), xfer_(xfer), source_(source), target_(target),
      backups_(backups), cfg_(cfg)
{}

bool
MigrationManager::is_migrating(const Request *r) const
{
    return active_.count(r->id) > 0;
}

bool
MigrationManager::start(Request *r)
{
    if (is_migrating(r) || r->finished())
        return false;
    if (source_.is_down() || target_.is_down())
        return false; // no endpoint to copy from/to until repair
    std::size_t ctx = r->context_length();
    std::size_t already_there = target_.blocks().holds(r->id)
                                    ? target_.blocks().tokens_of(r->id)
                                    : 0;
    std::size_t extra = ctx > already_there ? ctx - already_there : 0;
    // Start only with 256 tokens of headroom left at the target.
    if (!target_.blocks().can_allocate(extra + 256))
        return false;

    std::size_t backed = backups_.backed_up_tokens(r->id);
    std::size_t to_send = ctx > backed ? ctx - backed : 0;
    audit::transition(audit_, *r, RequestState::Migrating);
    workload::RequestId id = r->id;
    hw::TransferId tid = xfer_.reverse_channel().submit(
        xfer_.bytes_for_tokens(static_cast<double>(to_send)),
        [this, id] { complete(id); });
    Migration m{r, tid, ctx, false, false, sim_.now()};
    if (!cfg_.stall_free) {
        // Blocking migration (ablation): stop decoding right away.
        pause(m);
    }
    active_.emplace(id, m);
    WS_LOG_AT(Debug, "migration", sim_.now())
        << "start req " << id << " ctx " << ctx << " send " << to_send;
    return true;
}

void
MigrationManager::pause(Migration &m)
{
    if (m.paused)
        return;
    m.paused = true;
    source_.pause_decoding(m.req);
}

void
MigrationManager::on_source_step()
{
    std::vector<workload::RequestId> ids;
    ids.reserve(active_.size());
    for (const auto &[id, m] : active_)
        ids.push_back(id);
    for (auto id : ids) {
        auto it = active_.find(id);
        if (it == active_.end())
            continue;
        Migration &m = it->second;
        if (m.cancelled || m.paused)
            continue;
        std::size_t ctx = m.req->context_length();
        if (ctx > m.synced_tokens &&
            !xfer_.reverse_channel().is_done(m.transfer)) {
            xfer_.reverse_channel().append(
                m.transfer, xfer_.bytes_for_tokens(
                                static_cast<double>(ctx - m.synced_tokens)));
            m.synced_tokens = ctx;
        }
        double remaining = xfer_.reverse_channel().remaining_bytes(m.transfer);
        // Pause the request once fewer than 64 KV tokens remain to send.
        double threshold = xfer_.bytes_for_tokens(64.0);
        if (remaining <= threshold)
            pause(m);
    }
}

void
MigrationManager::on_request_finished(Request *r)
{
    auto it = active_.find(r->id);
    if (it != active_.end())
        it->second.cancelled = true;
}

std::vector<Request *>
MigrationManager::cancel_active()
{
    std::vector<Request *> out;
    for (auto &[id, m] : active_) {
        if (m.cancelled)
            continue;
        m.cancelled = true;
        out.push_back(m.req);
    }
    std::sort(out.begin(), out.end(),
              [](const Request *a, const Request *b) { return a->id < b->id; });
    return out;
}

void
MigrationManager::on_target_crash()
{
    std::vector<workload::RequestId> ids;
    ids.reserve(active_.size());
    for (const auto &[id, m] : active_)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (auto id : ids) {
        auto it = active_.find(id);
        Migration &m = it->second;
        Request *r = m.req;
        ++aborted_;
        if (trace_) {
            trace_->span(obs::Category::Transfer, "interconnect",
                         "migration", "migrate-abort", m.started,
                         sim_.now() - m.started,
                         {obs::num_arg("req", std::uint64_t(id))});
        }
        bool was_paused = m.paused;
        active_.erase(it);
        // The in-flight copy's completion finds no active entry and
        // no-ops when it drains.
        if (r->finished())
            continue;
        audit::transition(audit_, *r, RequestState::Decoding);
        if (was_paused)
            source_.enqueue_decode(r, /*kv_resident=*/true);
    }
}

void
MigrationManager::complete(workload::RequestId id)
{
    auto it = active_.find(id);
    if (it == active_.end())
        return;
    Migration &m = it->second;
    Request *r = m.req;

    if (m.cancelled || r->finished()) {
        ++aborted_;
        if (trace_) {
            trace_->span(obs::Category::Transfer, "interconnect",
                         "migration", "migrate-abort", m.started,
                         sim_.now() - m.started,
                         {obs::num_arg("req", std::uint64_t(id))});
        }
        active_.erase(it);
        return;
    }

    if (target_.is_down()) {
        // Target crashed mid-copy: the blocks we were filling are gone.
        // Abort and resume decoding at the source, whose KV is intact.
        pause(m);
        ++aborted_;
        if (trace_) {
            trace_->span(obs::Category::Transfer, "interconnect",
                         "migration", "migrate-abort", m.started,
                         sim_.now() - m.started,
                         {obs::num_arg("req", std::uint64_t(id))});
        }
        audit::transition(audit_, *r, RequestState::Decoding);
        active_.erase(it);
        source_.enqueue_decode(r, /*kv_resident=*/true);
        return;
    }

    // The request may still be decoding (the transfer drained faster
    // than the pause check ran): flush the tail with a follow-up copy.
    std::size_t ctx = r->context_length();
    if (!m.paused) {
        pause(m);
        // A token generated in the final in-flight iteration may still
        // land (complete_group increments after our pause); one block of
        // slack in the target allocation below covers it.
    }
    if (ctx > m.synced_tokens) {
        std::size_t delta = ctx - m.synced_tokens;
        m.synced_tokens = ctx;
        m.transfer = xfer_.reverse_channel().submit(
            xfer_.bytes_for_tokens(static_cast<double>(delta)),
            [this, id] { complete(id); });
        return;
    }

    // Finalize: move the allocation to the target.
    bool ok;
    if (target_.blocks().holds(id)) {
        ok = target_.blocks().grow(id, ctx);
    } else {
        ok = target_.blocks().allocate(id, ctx).has_value();
    }
    if (!ok) {
        // Target filled up meanwhile: abort, resume at the source.
        ++aborted_;
        if (trace_) {
            trace_->span(obs::Category::Transfer, "interconnect",
                         "migration", "migrate-abort", m.started,
                         sim_.now() - m.started,
                         {obs::num_arg("req", std::uint64_t(id)),
                          obs::num_arg("ctx", std::uint64_t(ctx))});
        }
        audit::transition(audit_, *r, RequestState::Decoding);
        active_.erase(it);
        source_.enqueue_decode(r, /*kv_resident=*/true);
        return;
    }
    if (trace_) {
        trace_->span(obs::Category::Transfer, "interconnect", "migration",
                     "migrate", m.started, sim_.now() - m.started,
                     {obs::num_arg("req", std::uint64_t(id)),
                      obs::num_arg("ctx", std::uint64_t(ctx))});
    }
    source_.release_kv(r);
    backups_.drop(id);
    ++r->migrations;
    ++completed_;
    active_.erase(it);
    WS_LOG_AT(Debug, "migration", sim_.now())
        << "complete req " << id << " ctx " << ctx;
    if (on_migrated)
        on_migrated(r);
}

// ---------------------------------------------------------------------

BackupManager::BackupManager(sim::Simulator &sim, KvTransferManager &xfer,
                             engine::Instance &source,
                             engine::Instance &target,
                             kvcache::BackupRegistry &registry, Config cfg)
    : sim_(sim), xfer_(xfer), source_(source), target_(target),
      registry_(registry), cfg_(cfg)
{}

void
BackupManager::attach(const engine::Attachments &at)
{
    trace_ = at.trace;
    if (at.faults)
        fault_tolerance_mode();
}

void
BackupManager::fault_tolerance_mode()
{
    cfg_.source_occupancy_trigger = 0.0;
    cfg_.target_occupancy_limit = 0.60;
    cfg_.max_inflight = 4;
    cfg_.min_context_tokens = 256;
}

void
BackupManager::maybe_backup()
{
    if (source_.is_down() || target_.is_down())
        return;
    if (inflight_.size() >= cfg_.max_inflight)
        return;
    if (source_.blocks().occupancy() < cfg_.source_occupancy_trigger)
        return;
    if (target_.blocks().occupancy() > cfg_.target_occupancy_limit)
        return;

    // Longest running decode without a backup in flight or on record.
    Request *best = nullptr;
    for (const auto &grp : source_.groups()) {
        for (Request *r : grp.members) {
            if (r->state == RequestState::Migrating)
                continue;
            if (registry_.has_backup(r->id) || inflight_.count(r->id))
                continue;
            if (r->context_length() < cfg_.min_context_tokens)
                continue;
            if (!best || r->context_length() > best->context_length())
                best = r;
        }
    }
    if (!best)
        return;
    std::size_t ctx = best->context_length();
    if (!target_.blocks().can_allocate(ctx))
        return;
    target_.blocks().allocate(best->id, ctx);
    inflight_[best->id] = ctx;
    Request *r = best;
    double started = sim_.now();
    xfer_.reverse_channel().submit(
        xfer_.bytes_for_tokens(static_cast<double>(ctx)),
        [this, r, ctx, started, gen = generation_] {
            if (gen != generation_)
                return; // an endpoint crashed mid-copy; disowned
            inflight_.erase(r->id);
            if (trace_) {
                trace_->span(obs::Category::Transfer, "interconnect",
                             "backup", "kv-backup", started,
                             sim_.now() - started,
                             {obs::num_arg("req", std::uint64_t(r->id)),
                              obs::num_arg("ctx", std::uint64_t(ctx))});
            }
            if (r->finished()) {
                target_.blocks().release(r->id);
                return;
            }
            registry_.record(r->id, ctx);
            ++backups_taken_;
        });
}

void
BackupManager::on_source_crash()
{
    ++generation_;
    std::vector<workload::RequestId> ids;
    ids.reserve(inflight_.size());
    for (const auto &[id, ctx] : inflight_)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (auto id : ids)
        target_.blocks().release(id);
    inflight_.clear();
}

void
BackupManager::on_target_crash()
{
    ++generation_;
    inflight_.clear();
}

void
BackupManager::on_request_done(workload::Request *r)
{
    // Release target-side blocks held purely as a backup. If the request
    // migrated, the migration manager already took ownership and dropped
    // the registry entry.
    if (registry_.has_backup(r->id)) {
        registry_.drop(r->id);
        if (target_.blocks().holds(r->id) && !target_.is_decoding(r))
            target_.blocks().release(r->id);
    }
}

} // namespace windserve::transfer
