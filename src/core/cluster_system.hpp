/**
 * @file
 * ClusterServeSystem: WindServe on `num_nodes` NVLink islands, each
 * hosting `pods_per_node` pods (a pod = one prefill/decode pair with
 * its own Profiler and Coordinator — see core/pod.hpp). Every
 * WindServe run goes through this class; WindServeSystem is its
 * one-node, one-pod case.
 *
 * A CrossPodBalancer routes each new request to the least-loaded pod;
 * everything after admission (dispatch, SBD, stall-free rescheduling,
 * backups) stays pod-local. Two explicit cross-pod paths exist:
 *
 *  - decode offload: when a pod's decode KV pressure crosses the
 *    high-water mark (or its decode instance is down) at prefill
 *    completion, the prompt KV ships over the source node's NIC — a
 *    processor-sharing hw::SharedChannel, so concurrent cross-node
 *    copies contend — to the least-pressured remote pod;
 *  - crash re-dispatch: a victim whose home pod is fully down is
 *    recomputed at the least-loaded pod with a live instance.
 *
 * A single pod has neither: it runs on the hub simulator itself, with
 * no NIC channels, no logical processes and unprefixed instance and
 * channel names.
 *
 * Logical processes: a multi-pod cluster is partitioned into one
 * sim::Simulator per pod, coordinated by a sim::LpScheduler around the
 * hub simulator that owns arrivals, the balancer, the NIC fabric and
 * the chaos engine (see simcore/lp.hpp). Only pods with events due run
 * in each conservative bounded-lag window; cross-pod interactions are
 * timestamped messages posted onto the hub timeline. The
 * decode-offload decision models an explicit control-plane latency
 * (cluster_lookahead_floor(), the fabric's base latency): the source
 * pod parks the request (Pod::hold_for_offload) and the hub scans
 * remote pressure one lookahead later, when every pod's state at that
 * timestamp is exact.
 *
 * Determinism: pod k runs on seed `base ^ (k * golden)` (pod 0 keeps
 * the base seed), the balancer is RNG-free, and all cross-pod traffic
 * flows through the hub simulator's timeline — a cluster run stays a
 * pure function of (config, workload, seed), bit-identical at any
 * --jobs.
 */
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/pod.hpp"
#include "core/pod_balancer.hpp"
#include "ctrl/control_plane.hpp"
#include "engine/serving_system.hpp"
#include "hw/topology.hpp"
#include "simcore/lp.hpp"

namespace windserve::core {

/**
 * Shape and policy of a sharded WindServe deployment. Cross-pod decode
 * offload and crash re-dispatch are on whenever there are two or more
 * pods; their LP engine runs 1 ms bounded-lag windows (see replay()).
 */
struct ClusterConfig {
    /** Per-pod template. `pod.topology` describes ONE node (its
     *  num_nodes / inter_node_links are overridden per pod); `pod.seed`
     *  is the cluster base seed. */
    WindServeConfig pod;
    /** NVLink islands in the cluster. */
    std::size_t num_nodes = 2;
    /** Pods carved out of each node. */
    std::size_t pods_per_node = 1;
    /** Per-node-pair NIC overrides for the cluster fabric (validated
     *  against num_nodes). */
    std::vector<hw::InterNodeLink> inter_node_links;

    /** Local decode KV fraction above which prefill completions are
     *  offered to other pods. In [0, 1] and >= offload_lowwater. */
    double offload_highwater = 0.85;
    /** Remote decode KV fraction below which a pod accepts offloads.
     *  In [0, 1]. */
    double offload_lowwater = 0.60;

    /**
     * Replicated control plane (ctrl/control_plane.hpp). With
     * ctrl.replicas <= 1 (the default) no control plane is built at
     * all — no replicas, no channels, no RNG draws, no events — so
     * such clusters are byte-identical to the pre-control-plane code,
     * including events_fired. At >= 2 replicas every externally
     * visible scheduler decision (admission, decode offload, crash
     * re-dispatch) becomes a replicated log entry that takes effect
     * only once a majority commits it. */
    ctrl::ControlPlaneConfig ctrl;
};

/**
 * The cluster's conservative-lookahead floor: the smallest cross-pod
 * interaction latency the fabric guarantees, used both as the decode
 * offload's control-plane latency and as the LpScheduler lookahead.
 * Multi-node clusters: the minimum inter-node base latency (default
 * NIC latency, lowered by per-pair overrides). Single-node multi-pod
 * clusters: the PCIe root-complex hop (2x link latency), matching the
 * egress SharedChannel the pods actually share.
 */
double cluster_lookahead_floor(const hw::Topology &topo);

/** See file comment. */
class ClusterServeSystem : public engine::ServingSystem
{
  public:
    /** @throws std::invalid_argument naming the field when an offload
     *  watermark is out of range (see ClusterConfig). */
    explicit ClusterServeSystem(ClusterConfig cfg);

    std::string name() const override { return "WindServe"; }
    std::size_t num_gpus() const override;

    std::uint64_t total_events_fired() override
    {
        std::uint64_t sum = sim_.events_fired();
        for (const auto &s : pod_sims_)
            sum += s->events_fired();
        return sum;
    }

    std::size_t num_replicas() const override { return pods_.size(); }
    engine::Instance &prefill(std::size_t k) override
    {
        return pods_.at(k)->prefill_instance();
    }
    engine::Instance &decode(std::size_t k) override
    {
        return pods_.at(k)->decode_instance();
    }

    // introspection
    Pod &pod(std::size_t k) { return *pods_.at(k); }
    /** The LP scheduler of the last replay (nullptr before replay and
     *  for single-pod clusters). */
    const sim::LpScheduler *lp() const { return lp_.get(); }
    /** Cross-pod control-plane latency == LpScheduler lookahead. */
    double lookahead() const { return ctl_latency_; }
    const CrossPodBalancer &balancer() const { return balancer_; }
    const ClusterConfig &config() const { return cfg_; }
    std::uint64_t cross_offloads() const { return cross_offloads_; }
    std::uint64_t cross_redispatches() const { return cross_redispatches_; }
    /** The replicated control plane (nullptr when ctrl.replicas <= 1). */
    ctrl::ControlPlane *ctrl() { return ctrl_.get(); }
    /** Crash re-dispatches that looked up the KV-backup directory. */
    std::uint64_t directory_consults() const { return directory_consults_; }
    /** Consults whose directory entry matched the victim's home pod
     *  (the new leader resumes from checkpointed KV). */
    std::uint64_t directory_hits() const { return directory_hits_; }

    /** Sum of per-pod scheduler dispatches (harness reporting). */
    std::uint64_t total_dispatches() const;
    /** Sum of per-pod scheduler reschedules. */
    std::uint64_t total_reschedules() const;
    /** Sum of per-pod completed migrations. */
    std::uint64_t total_migrations() const;
    /** Sum of per-pod backups taken. */
    std::uint64_t total_backups() const;

  protected:
    void replay(const std::vector<workload::Request> &trace,
                double horizon) override;
    /** Arrival entry point: direct admission, or (with a replicated
     *  control plane) an Admit log entry applied at commit time. */
    void on_arrival(workload::Request *r) override;
    void fill_system_metrics(metrics::RunMetrics &m) override;
    void attach(const engine::Attachments &at) override;

  private:
    friend class Pod; // calls the "Pod entry" methods below

    /** Run @p apply now or, with a control plane, once a majority
     *  commits it as a @p kind log entry for request @p id. */
    template <class F>
    void commit(ctrl::CommandKind kind, workload::RequestId id, F &&apply)
    {
        if (!ctrl_)
            apply();
        else
            ctrl_->propose(kind, id, std::forward<F>(apply));
    }

    /** Balancer admission: pick a pod, record the home, hand over. */
    void admit_arrival(workload::Request *r);

    /** Pod entry: maybe claim a prefill completion for remote decode.
     *  Multi-pod: parks the request and posts the decision to the hub
     *  one control-latency later (decide_offload). */
    bool maybe_offload(Pod &src, workload::Request *r);
    /** Hub side of the offload: scan remote pressure, ship the KV over
     *  the NIC or fall back to the pod-local hand-off. */
    void decide_offload(std::size_t k, workload::Request *r,
                        std::uint32_t inc);
    /** Balancer release and drain check for a retired request. */
    void retire_finished(workload::Request *r);
    /** Pod entry: retire_finished on the hub timeline. */
    void pod_finished(Pod &src, workload::Request *r);
    /** Pod entry: close @p r 's fault-recovery window on the hub. */
    void decode_ready(Pod &src, workload::Request *r);
    /** Run @p fn on the hub timeline at pod @p k's time: at once from a
     *  hub phase (or a single pod), else as a zero-delay hub message,
     *  since mid-window the pod's clock runs ahead of the hub's. */
    template <class F>
    void on_hub(std::size_t k, F &&fn)
    {
        if (!lp_ || lp_->in_hub_phase())
            fn();
        else
            lp_->post(pod_sims_[k]->now(), std::forward<F>(fn));
    }
    /** Node fault domains plus the injector's redispatch, control-fault
     *  and crash hooks (attach() with a fault injector). */
    void install_fault_hooks(fault::FaultInjector &inj);
    /** Pod entry: re-home a victim whose pod is fully down. */
    bool maybe_redispatch_remote(Pod &src, workload::Request *r);

    std::size_t node_of_pod(std::size_t k) const
    {
        return k / cfg_.pods_per_node;
    }
    /** @p r 's slot in home_pod_; throws if @p r is not in requests_. */
    std::size_t slot_of(const workload::Request *r) const;
    std::size_t home_of(const workload::Request *r) const;
    static double tokens_of(const workload::Request *r);
    /** Pods whose instances are not both down, refilled into live_
     *  on each call (hub timeline only). */
    const std::vector<bool> &live_pods();

    ClusterConfig cfg_;
    hw::Topology topo_; ///< cluster-wide (NIC links); pods own islands
    /** One simulator per pod (multi-pod only; empty = shared path). */
    std::vector<std::unique_ptr<sim::Simulator>> pod_sims_;
    std::vector<std::unique_ptr<Pod>> pods_;
    /** Built at replay() start (multi-pod only). */
    std::unique_ptr<sim::LpScheduler> lp_;
    /** cluster_lookahead_floor(topo_); 0 for single-pod clusters. */
    double ctl_latency_ = 0.0;
    /** Egress NIC per node (absent for a single-node cluster). */
    std::vector<std::unique_ptr<hw::SharedChannel>> nics_;
    CrossPodBalancer balancer_;
    /** live_pods() buffer, reused across admissions and re-dispatches. */
    std::vector<bool> live_;
    /** Current owning pod per request, indexed like requests_;
     *  kNoHome before admission and after retirement. */
    std::vector<std::uint32_t> home_pod_;
    static constexpr std::uint32_t kNoHome = ~0u;
    std::size_t outstanding_ = 0;
    std::uint64_t cross_offloads_ = 0;
    std::uint64_t cross_redispatches_ = 0;
    /** Replicated control plane on the hub sim (ctrl.replicas >= 2
     *  only; nullptr otherwise so single-leader clusters stay
     *  byte-identical to the historical path). */
    std::unique_ptr<ctrl::ControlPlane> ctrl_;
    std::uint64_t directory_consults_ = 0;
    std::uint64_t directory_hits_ = 0;
};

} // namespace windserve::core
