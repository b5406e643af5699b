/**
 * @file
 * WindServe: the complete phase-disaggregated serving system with
 * stream-based dynamic scheduling (the paper's contribution).
 *
 * Wiring (paper Fig. 4): a Global Scheduler (the prefill instance's
 * Eq. (1) Profiler + Coordinator) sits above a prefill instance and a
 * decode instance, each with a FCFS local scheduler and a paged KV
 * manager. KV transfers overlap prefill computation; Dynamic Prefill
 * Dispatch sends prefills to the decode instance's SBD stream under
 * prefill overload; Dynamic Rescheduling migrates long decodes back to
 * the prefill instance (stall-free) under memory pressure, with
 * proactive KV backups shrinking migration cost.
 *
 * That pipeline is one core::Pod. WindServeSystem is the
 * ClusterServeSystem of one node holding one pod, so a single-testbed
 * run and a sharded cluster share one replay and one attachment path;
 * the accessors below reach into that pod.
 *
 * Ablation switches reproduce the §5.4 variants:
 *   enable_sbd = false            -> WindServe-no-split
 *   coord.enable_rescheduling = false -> WindServe-no-resche
 */
#pragma once

#include <utility>

#include "core/cluster_system.hpp"

namespace windserve::core {

/** See file comment. */
class WindServeSystem : public ClusterServeSystem
{
  public:
    explicit WindServeSystem(WindServeConfig cfg)
        : ClusterServeSystem(one_pod(std::move(cfg)))
    {
    }

    // introspection for tests and ablation studies (the instances are
    // prefill(0) and decode(0))
    GlobalScheduler &scheduler() { return pod(0).scheduler(); }
    transfer::MigrationManager &migration() { return pod(0).migration(); }
    transfer::BackupManager &backup() { return pod(0).backup(); }

  private:
    static ClusterConfig one_pod(WindServeConfig cfg)
    {
        ClusterConfig cc;
        cc.pod = std::move(cfg);
        cc.num_nodes = 1;
        cc.pods_per_node = 1;
        return cc;
    }
};

} // namespace windserve::core
