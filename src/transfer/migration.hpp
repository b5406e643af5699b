/**
 * @file
 * Stall-free Dynamic Rescheduling (paper §3.3, Fig. 6) and KV backup.
 *
 * When the decode instance's KV blocks near exhaustion, WindServe
 * migrates long-context requests to the prefill instance. The transfer
 * runs while the request KEEPS DECODING at the source — newly generated
 * KV is appended to the in-flight copy — and the request only pauses
 * once the untransferred remainder falls below a threshold. After the
 * tail flushes, decoding resumes on the prefill instance (which then
 * serves its own prefills in chunked mode to bound interference).
 *
 * BackupManager implements the complementary optimisation: while the
 * prefill instance has spare KV blocks and the decode instance is
 * filling up, it proactively copies long requests' KV prefixes so a
 * later migration only ships the delta.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "engine/instance.hpp"
#include "kvcache/backup_registry.hpp"
#include "transfer/kv_transfer.hpp"

namespace windserve::transfer {

/** Tunables of the migration machinery. */
struct MigrationConfig {
    /**
     * Stall-free on/off. When off the request pauses immediately at
     * migration start (blocking migration, for the ablation).
     */
    bool stall_free = true;
};

/**
 * Orchestrates stall-free request migrations from a decode instance to
 * a prefill instance.
 */
class MigrationManager
{
  public:
    /**
     * @param sim     simulation kernel
     * @param xfer    transfer manager whose reverse channel we ride
     * @param source  the overloaded decode instance
     * @param target  the prefill instance that will continue decoding
     * @param backups registry of prefix KV already present at the target
     */
    MigrationManager(sim::Simulator &sim, KvTransferManager &xfer,
                     engine::Instance &source, engine::Instance &target,
                     kvcache::BackupRegistry &backups,
                     MigrationConfig cfg = {});

    /** Fires when a request is ready to decode at the target. */
    std::function<void(workload::Request *)> on_migrated;

    /**
     * Begin migrating @p r. @return false if the target cannot hold its
     * context (no state is changed in that case).
     */
    bool start(workload::Request *r);

    /**
     * Progress hook — call after every source decode iteration. Appends
     * freshly generated KV to in-flight copies and pauses requests whose
     * remainder dropped below the threshold.
     */
    void on_source_step();

    /** Notify that @p r finished at the source mid-migration. */
    void on_request_finished(workload::Request *r);

    /**
     * Abandon every in-flight migration (the source instance crashed:
     * the KV being copied no longer exists). The copies' completions
     * are disowned; they count as aborted when they drain. @return the
     * affected requests, sorted by id — paused ones sit in no queue,
     * so the crash victim sweep cannot see them.
     */
    std::vector<workload::Request *> cancel_active();

    /**
     * The target (prefill) instance crashed: every partial copy landed
     * in HBM that no longer exists. Abort all in-flight migrations NOW
     * — waiting for the wire to drain could race a repair and finalize
     * phantom KV — and resume paused requests at the source, whose KV
     * is intact. Requests still decoding stall-free just keep going.
     */
    void on_target_crash();

    bool is_migrating(const workload::Request *r) const;
    std::size_t active() const { return active_.size(); }
    std::uint64_t completed() const { return completed_; }
    std::uint64_t aborted() const { return aborted_; }

    const MigrationConfig &config() const { return cfg_; }

    /** Record one span per migration (start -> complete/abort) on
     *  at.trace and route the Migrating/abort state transitions
     *  through at.audit. */
    void attach(const engine::Attachments &at)
    {
        trace_ = at.trace;
        audit_ = at.audit;
    }

  private:
    struct Migration {
        workload::Request *req;
        hw::TransferId transfer;
        std::size_t synced_tokens; ///< context tokens submitted so far
        bool paused;
        bool cancelled;
        double started; ///< sim time start() ran (trace span origin)
    };

    void complete(workload::RequestId id);
    void pause(Migration &m);

    sim::Simulator &sim_;
    KvTransferManager &xfer_;
    engine::Instance &source_;
    engine::Instance &target_;
    kvcache::BackupRegistry &backups_;
    MigrationConfig cfg_;
    std::unordered_map<workload::RequestId, Migration> active_;
    std::uint64_t completed_ = 0;
    std::uint64_t aborted_ = 0;
    obs::TraceRecorder *trace_ = nullptr;
    audit::SimAuditor *audit_ = nullptr;
};

/** Proactive KV prefix backups (decode -> prefill). */
class BackupManager
{
  public:
    /** Thresholds controlling when backups run. */
    struct Config {
        /** Start backing up when decode occupancy exceeds this. */
        double source_occupancy_trigger = 0.60;
        /** Only while prefill occupancy stays below this. */
        double target_occupancy_limit = 0.50;
        /** Cap on concurrent backup copies. */
        std::size_t max_inflight = 2;
        /** Only requests at least this long are worth backing up. */
        std::size_t min_context_tokens = 512;
    };

    BackupManager(sim::Simulator &sim, KvTransferManager &xfer,
                  engine::Instance &source, engine::Instance &target,
                  kvcache::BackupRegistry &registry, Config cfg);

    /** Policy tick — call from the coordinator's step hook. */
    void maybe_backup();

    /**
     * Record one span per backup copy on at.trace. With at.faults set
     * the run is chaos-armed and the manager switches to
     * fault_tolerance_mode().
     */
    void attach(const engine::Attachments &at);

    /** Release target-side blocks when a request completes or migrates. */
    void on_request_done(workload::Request *r);

    /**
     * The decode (source) instance crashed: in-flight copies read from
     * KV that no longer exists. Their completions are disowned and the
     * target blocks reserved for them returned. Completed backups stay
     * — they are exactly what makes the victims' recovery cheap.
     */
    void on_source_crash();

    /**
     * The prefill (target) instance crashed: its blocks — including
     * every backup copy — were already freed by Instance::crash();
     * disown in-flight completions so they do not re-touch them. The
     * caller clears the BackupRegistry.
     */
    void on_target_crash();

    std::uint64_t backups_taken() const { return backups_taken_; }
    std::size_t inflight() const { return inflight_.size(); }

  private:
    /**
     * Proactive checkpointing for a chaos-armed run: back up
     * continuously instead of only under memory pressure, with more
     * concurrent copies and a lower size floor. A deployment expecting
     * crashes pays reverse-channel bandwidth up front so victims can
     * resume from the prefill-side copy instead of recomputing. Only
     * attach() with a fault injector calls it: fault-free runs keep the
     * pressure-triggered policy bit for bit.
     */
    void fault_tolerance_mode();

    sim::Simulator &sim_;
    KvTransferManager &xfer_;
    engine::Instance &source_;
    engine::Instance &target_;
    kvcache::BackupRegistry &registry_;
    Config cfg_;
    std::unordered_map<workload::RequestId, std::size_t> inflight_;
    /** Bumped on either side's crash; stale copy completions compare
     *  against it and drop out. */
    std::uint64_t generation_ = 0;
    std::uint64_t backups_taken_ = 0;
    obs::TraceRecorder *trace_ = nullptr;
};

} // namespace windserve::transfer
