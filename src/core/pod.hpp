/**
 * @file
 * One WindServe pod: a prefill/decode instance pair with its own
 * global scheduler (the prefill instance's Eq. (1) Profiler plus the
 * Coordinator, paper §3.2), KV transfer path, migration and backup
 * managers, plus WindServeConfig, the configuration that builds it.
 *
 * A pod runs the paper's full Fig. 4 pipeline locally (dispatch, SBD,
 * stall-free rescheduling, proactive backups) on one NVLink island's
 * worth of GPUs. ClusterServeSystem is the only owner: it builds one
 * pod per (node, slot), and the pod reaches the cluster only through
 * four private cluster entry points:
 *  - maybe_offload: a local prefill completed; true when the cluster
 *    ships the KV over the NIC to another pod instead of the local
 *    prefill->decode copy (the request stays in this pod's hand-off
 *    ledger until the copy lands, so a prefill crash sweeps it);
 *  - maybe_redispatch_remote: a crash victim cannot be re-dispatched
 *    locally; true when the cluster re-routes it to another pod;
 *  - pod_finished: a request retired; the cluster releases its
 *    balancer load on the hub timeline;
 *  - decode_ready: a request reached a decode queue (or finished),
 *    closing the fault injector's recovery window on the hub timeline.
 *    Called only while a fault injector is attached.
 *
 * With one pod the cross-pod entry points decline and the hub calls
 * run inline, so the pod runs the plain single-testbed pipeline.
 */
#pragma once

#include <memory>
#include <string>

#include "core/coordinator.hpp"
#include "core/profiler.hpp"
#include "engine/instance.hpp"
#include "hw/topology.hpp"
#include "transfer/kv_transfer.hpp"
#include "transfer/migration.hpp"

namespace windserve::core {

/** Full configuration of a WindServe deployment (one pod's worth). */
struct WindServeConfig : engine::SystemConfig {
    model::ParallelismConfig prefill_parallelism{2, 1};
    model::ParallelismConfig decode_parallelism{2, 1};

    CoordinatorConfig coordinator;
    transfer::KvTransferConfig transfer{
        transfer::TransferPolicy::Overlapped, ""};
    transfer::MigrationConfig migration;
    transfer::BackupManager::Config backup;

    /** SLOs drive the assist budget and (by default) `thrd`. */
    double ttft_slo = 0.25;
    double tpot_slo = 0.10;

    /** The decode instance's chunk size (InstanceConfig::chunk_size). */
    std::size_t chunk_size = 512;

    /** Stream-based disaggregation on the decode instance (§3.4). */
    bool enable_sbd = true;
};

class ClusterServeSystem;

/** See file comment. */
class Pod
{
  public:
    /**
     * Build a pod on @p sim. @p name_prefix (e.g. "pod3/") prefixes the
     * instance and channel names so the auditor's per-name ledgers stay
     * distinct across pods; a single-pod cluster passes "". @p index is
     * the pod's id within its cluster, @p cluster its owner.
     *
     * @throws std::invalid_argument naming the pod (or instance) and
     *         the field when an SLO is not finite and > 0, the
     *         coordinator's resched_occupancy_trigger is outside [0, 1],
     *         its thrd is not finite and >= 0, or an instance-level
     *         field is out of range (see Instance).
     */
    Pod(sim::Simulator &sim, const WindServeConfig &cfg,
        ClusterServeSystem &cluster, std::string name_prefix,
        std::size_t index);
    ~Pod();

    // ---- request lifecycle (entry points for the owner) ----

    /** Route a new request through Dynamic Prefill Dispatch. */
    void on_arrival(workload::Request *r);

    /** Backup-aware re-dispatch of a crash victim (may bounce to the
     *  cluster via maybe_redispatch_remote when the pod is fully
     *  down). */
    void redispatch_after_fault(workload::Request *r);

    /** Crash sweep for one of this pod's instances. */
    void on_instance_crashed(engine::Instance &inst,
                             std::vector<workload::Request *> &victims);

    /** Admit a request whose prompt KV just arrived from another pod
     *  (cross-pod decode offload): enqueue on the decode instance and
     *  close any fault-recovery window. */
    void admit_remote_decode(workload::Request *r);

    /**
     * Start the local prefill -> decode KV copy for a freshly prefilled
     * request (the default hand-off when no cross-pod offload claims
     * it). Public so a cluster that held the request for an offload
     * decision (see hold_for_offload) can fall back to the local path
     * after refusing the offload.
     */
    void begin_local_decode_transfer(workload::Request *r);

    /**
     * Park a freshly prefilled request while the owner decides where
     * its decode runs and ships its KV (cross-pod offload). The request
     * joins the pair's hand-off ledger, so a prefill crash before the
     * copy lands sweeps it into the victim set like any other in-flight
     * hand-off.
     */
    void hold_for_offload(workload::Request *r);

    /** True while a hold_for_offload() of @p id is parked (false once
     *  a prefill crash swept it). */
    bool holds_offload(workload::RequestId id) const
    {
        return pair_.transferring.count(id) != 0;
    }

    /** Drop the hold of @p id once its cross-pod copy landed; false
     *  when a prefill crash swept it meanwhile. */
    bool take_held_offload(workload::RequestId id)
    {
        return pair_.transferring.erase(id) != 0;
    }

    /**
     * Hand @p at to every component of the pod. With at.faults set,
     * registers the instances and channels on the injector (in the
     * pod's canonical order) and arms fault-tolerance backups; the
     * injector's redispatch/crash hooks are the owner's to install.
     * With at.telemetry set, registers the metric families; @p pod_label
     * (`pod="k"`) tags the per-pod scheduler/migration/backup series,
     * while channel and instance series are already unique via
     * name_prefix. at.trace and at.journal are the run's own, shared
     * by every pod; the pod's components stamp them with the pod's
     * simulator time.
     */
    void attach(const engine::Attachments &at, const std::string &pod_label);

    // ---- introspection ----

    engine::Instance &prefill_instance() { return *pair_.prefill; }
    engine::Instance &decode_instance() { return *pair_.decode; }
    /** The prefill instance's Eq. (1) Profiler. */
    Profiler &prefill_profiler() { return prefill_profiler_; }
    Coordinator &coordinator() { return *coordinator_; }
    transfer::MigrationManager &migration() { return *migration_; }
    transfer::BackupManager &backup() { return *backup_; }
    transfer::KvTransferManager &transfer() { return *pair_.xfer; }
    /** The pod's KV backup registry (the cluster control plane mirrors
     *  it into the coherent KV directory via BackupRegistry::Listener). */
    kvcache::BackupRegistry &backup_registry() { return backup_registry_; }
    std::size_t index() const { return index_; }

  private:
    void on_prefill_complete_at_prefill(workload::Request *r);
    void on_prefill_complete_at_decode(workload::Request *r);
    void on_finished(workload::Request *r);
    void finish_prefill_only(engine::Instance &inst, workload::Request *r);
    void notify_decode_ready(workload::Request *r);

    sim::Simulator &sim_;
    ClusterServeSystem &cluster_;
    std::size_t index_;
    bool enable_backup_;
    hw::Topology topo_;
    transfer::InstancePair pair_;
    kvcache::BackupRegistry backup_registry_;
    std::unique_ptr<transfer::MigrationManager> migration_;
    std::unique_ptr<transfer::BackupManager> backup_;
    Profiler prefill_profiler_;
    std::unique_ptr<Coordinator> coordinator_;
    engine::Attachments at_;
};

} // namespace windserve::core
