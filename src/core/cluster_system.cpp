#include "core/cluster_system.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "audit/sim_auditor.hpp"
#include "fault/fault_injector.hpp"
#include "hw/transfer_engine.hpp"
#include "obs/telemetry.hpp"
#include "simcore/log.hpp"

namespace windserve::core {

using workload::Request;
using workload::RequestState;

namespace {

hw::Topology
make_cluster_topology(const ClusterConfig &cfg)
{
    hw::TopologyConfig tc = cfg.pod.topology;
    tc.num_nodes = cfg.num_nodes;
    tc.inter_node_links = cfg.inter_node_links;
    return hw::Topology(tc);
}

/** @return @p cfg unchanged; throws std::invalid_argument naming the
 *  first out-of-range field. */
ClusterConfig
validated(ClusterConfig cfg)
{
    auto fail = [](const std::string &what) {
        throw std::invalid_argument("ClusterConfig: " + what);
    };
    if (!std::isfinite(cfg.lp_window) || cfg.lp_window < 0.0)
        fail("lp_window must be finite and >= 0, got " +
             std::to_string(cfg.lp_window));
    for (auto [name, v] : {std::pair{"offload_highwater",
                                     cfg.offload_highwater},
                           std::pair{"offload_lowwater",
                                     cfg.offload_lowwater}}) {
        if (!(v >= 0.0 && v <= 1.0))
            fail(std::string(name) + " must be in [0, 1], got " +
                 std::to_string(v));
    }
    if (cfg.offload_lowwater > cfg.offload_highwater)
        fail("offload_lowwater (" + std::to_string(cfg.offload_lowwater) +
             ") exceeds offload_highwater (" +
             std::to_string(cfg.offload_highwater) + ")");
    return cfg;
}

/** Pod k's RNG stream; k = 0 keeps the base seed. */
std::uint64_t
pod_seed(std::uint64_t base, std::size_t k)
{
    return base ^ (static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ULL);
}

} // namespace

double
cluster_lookahead_floor(const hw::Topology &topo)
{
    const hw::TopologyConfig &tc = topo.config();
    if (tc.num_nodes <= 1)
        return 2 * tc.link_latency; // PCIe RC hop between same-node pods
    double floor = tc.nic_latency;
    for (const hw::InterNodeLink &l : tc.inter_node_links)
        floor = std::min(floor, l.latency);
    return floor;
}

ClusterServeSystem::ClusterServeSystem(ClusterConfig cfg)
    : cfg_(validated(std::move(cfg))), topo_(make_cluster_topology(cfg_)),
      balancer_(cfg_.num_nodes * std::max<std::size_t>(cfg_.pods_per_node, 1))
{
    if (cfg_.pods_per_node == 0)
        throw std::invalid_argument(
            "ClusterServeSystem: need at least one pod per node");
    const std::size_t total = cfg_.num_nodes * cfg_.pods_per_node;
    const bool multi = total > 1;

    // Multi-pod clusters are partitioned into logical processes: each
    // pod simulates on its own kernel; the hub (sim_) keeps the
    // arrivals, the balancer, the NIC fabric and the chaos engine. A
    // 1-pod cluster runs its pod on the hub kernel.
    if (multi) {
        ctl_latency_ = cluster_lookahead_floor(topo_);
        pod_sims_.reserve(total);
        for (std::size_t k = 0; k < total; ++k)
            pod_sims_.push_back(std::make_unique<sim::Simulator>());
    }

    for (std::size_t k = 0; k < total; ++k) {
        WindServeConfig pc = cfg_.pod;
        // Each pod owns one island; the cluster fabric lives up here.
        pc.topology.num_nodes = 1;
        pc.topology.inter_node_links.clear();
        pc.seed = pod_seed(cfg_.pod.seed, k);
        std::string prefix = multi ? "pod" + std::to_string(k) + "/" : "";

        PodHooks hooks;
        hooks.on_finished = [this, k](Request *r) {
            // Balancer accounting lives on the hub.
            on_hub(k, [this, r] { retire_finished(r); });
        };
        hooks.offload_decode = [this](Pod &p, Request *r) {
            return maybe_offload(p, r);
        };
        hooks.redispatch_remote = [this](Pod &p, Request *r) {
            return maybe_redispatch_remote(p, r);
        };
        hooks.on_prefill_crash = [this](Pod &p,
                                        std::vector<Request *> &victims) {
            sweep_cross_transfers(p, victims);
        };
        if (multi) {
            // The injector runs on the hub clock.
            hooks.decode_ready = [this](Pod &p, Request *r) {
                on_hub(p.index(),
                       [this, r] { faults()->note_decode_ready(r); });
            };
        }
        pods_.push_back(std::make_unique<Pod>(
            multi ? *pod_sims_[k] : sim_, pc, std::move(hooks),
            std::move(prefix), k));
    }

    // One processor-sharing egress link per node carries cross-pod KV.
    // Multi-node clusters use the NIC/IB fabric; pods sharing a single
    // node cross the PCIe root complex instead. A 1-pod cluster has no
    // cross-pod traffic and gets no extra channels at all.
    if (multi) {
        const hw::TopologyConfig &tc = topo_.config();
        for (std::size_t n = 0; n < cfg_.num_nodes; ++n) {
            hw::Link egress;
            if (cfg_.num_nodes > 1) {
                // Per-node egress: the weakest inter-node path this
                // node could have to ship KV over. Per-pair overrides
                // (an oversubscribed spine, a slow WAN hop) pull the
                // node's effective egress below the NIC defaults;
                // without overrides this is exactly the uniform NIC
                // link, so historical runs are unchanged.
                egress = hw::Link{hw::LinkType::InterNode, tc.nic_bw,
                                  tc.nic_latency};
                for (std::size_t m = 0; m < cfg_.num_nodes; ++m) {
                    if (m == n)
                        continue;
                    hw::Link l = topo_.inter_node_link(n, m);
                    egress.bandwidth = std::min(egress.bandwidth,
                                                l.bandwidth);
                    egress.latency = std::min(egress.latency, l.latency);
                }
            } else {
                egress = hw::Link{hw::LinkType::PCIeRC, tc.pcie_rc_bw,
                                  2 * tc.link_latency};
            }
            nics_.push_back(std::make_unique<hw::SharedChannel>(
                sim_, egress, "nic/" + std::to_string(n)));
        }
    }

    // Replicated control plane: N scheduler replicas as actors on the
    // hub timeline. Built only on request (>= 2 replicas) — otherwise
    // no channels, no RNG draws, no events, so single-leader clusters
    // stay byte-identical to the historical path.
    if (cfg_.ctrl.replicas >= 2) {
        ctrl::ControlPlaneConfig cc = cfg_.ctrl;
        if (cc.seed == 0)
            cc.seed = cfg_.pod.seed ^ 0xf1bbcdcbfa53e0abULL;
        if (cc.link.bandwidth <= 0.0) {
            const hw::TopologyConfig &tc = topo_.config();
            cc.link = hw::Link{hw::LinkType::InterNode, tc.nic_bw,
                               tc.nic_latency};
        }
        ctrl_ = std::make_unique<ctrl::ControlPlane>(sim_, cc);
        // KV-directory coherence: each pod's BackupRegistry publishes
        // backup growth / drops / crash wipes into the cluster-wide
        // directory, which lives on the hub.
        for (std::size_t k = 0; k < pods_.size(); ++k) {
            kvcache::BackupRegistry::Listener lis;
            lis.on_record = [this, k](kvcache::ReqId id,
                                      std::size_t tokens) {
                on_hub(k, [this, k, id, tokens] {
                    ctrl_->directory().record(id, k, tokens);
                });
            };
            lis.on_drop = [this, k](kvcache::ReqId id) {
                on_hub(k, [this, k, id] { ctrl_->directory().drop(id, k); });
            };
            lis.on_clear = [this, k] {
                on_hub(k, [this, k] { ctrl_->directory().invalidate_pod(k); });
            };
            pods_[k]->backup_registry().set_listener(std::move(lis));
        }
    }
}

std::size_t
ClusterServeSystem::num_gpus() const
{
    return pods_.size() * (cfg_.pod.prefill_parallelism.num_gpus() +
                           cfg_.pod.decode_parallelism.num_gpus());
}

double
ClusterServeSystem::tokens_of(const Request *r)
{
    return static_cast<double>(r->prompt_tokens + r->output_tokens);
}

std::size_t
ClusterServeSystem::slot_of(const Request *r) const
{
    const Request *first = requests_.data();
    std::less<const Request *> before;
    if (before(r, first) || !before(r, first + home_pod_.size()))
        throw std::logic_error("ClusterServeSystem: request " +
                               std::to_string(r->id) +
                               " is not part of this replay");
    return static_cast<std::size_t>(r - first);
}

std::size_t
ClusterServeSystem::home_of(const Request *r) const
{
    std::uint32_t k = home_pod_[slot_of(r)];
    return k == kNoHome ? 0 : k;
}

const std::vector<bool> &
ClusterServeSystem::live_pods()
{
    live_.resize(pods_.size());
    for (std::size_t k = 0; k < pods_.size(); ++k) {
        live_[k] = !(pods_[k]->prefill_instance().is_down() &&
                     pods_[k]->decode_instance().is_down());
    }
    return live_;
}

void
ClusterServeSystem::on_arrival(Request *r)
{
    if (!ctrl_) {
        admit_arrival(r);
        return;
    }
    // Admission is an externally visible scheduler decision: it takes
    // effect only once a majority of control replicas commit it.
    ctrl_->propose(ctrl::CommandKind::Admit, r->id,
                   [this, r] { admit_arrival(r); });
}

void
ClusterServeSystem::admit_arrival(Request *r)
{
    // Only the fault injector crashes instances: without one every pod
    // is live and the unmasked scan picks the same pod.
    std::size_t k =
        balancer_.route(tokens_of(r), faults() ? &live_pods() : nullptr);
    home_pod_[slot_of(r)] = static_cast<std::uint32_t>(k);
    pods_[k]->on_arrival(r);
}

void
ClusterServeSystem::retire_finished(Request *r)
{
    std::uint32_t &home = home_pod_[slot_of(r)];
    if (home != kNoHome) {
        balancer_.release(home, tokens_of(r));
        home = kNoHome;
    }
    if (outstanding_ > 0)
        --outstanding_;
    // Traffic drained: stop the control plane's timers so heartbeats
    // do not pump the simulation to the horizon for nothing.
    if (outstanding_ == 0 && ctrl_)
        ctrl_->stop();
}

bool
ClusterServeSystem::maybe_offload(Pod &src, Request *r)
{
    if (!cfg_.allow_cross_pod || pods_.size() < 2)
        return false;
    const std::size_t k = src.index();
    // Local-only admission test — mid-window, remote pods may be behind
    // or ahead of this pod's clock. The remote scan happens on the hub
    // timeline one control-latency later, when every pod's state at
    // that timestamp is exact.
    if (!src.decode_instance().is_down() &&
        src.decode_instance().kv_used_fraction() < cfg_.offload_highwater)
        return false;
    src.hold_for_offload(r);
    lp_->post(pod_sims_[k]->now() + ctl_latency_,
              [this, k, r, inc = r->incarnation] {
                  if (!ctrl_) {
                      decide_offload(k, r, inc);
                      return;
                  }
                  // Offload is externally visible: replicate first,
                  // decide at commit. The hold survives the commit
                  // latency; a crash meanwhile sweeps the hold and the
                  // apply falls through harmlessly.
                  ctrl_->propose(ctrl::CommandKind::Offload, r->id,
                                 [this, k, r, inc] {
                                     decide_offload(k, r, inc);
                                 });
              });
    return true;
}

void
ClusterServeSystem::decide_offload(std::size_t k, Request *r,
                                   std::uint32_t inc)
{
    if (r->incarnation != inc)
        return; // source prefill crashed meanwhile; r was re-dispatched
    Pod &src = *pods_[k];
    if (!src.take_held_offload(r->id))
        return; // the hold was swept by a crash; victim already re-routed
    const bool forced = src.decode_instance().is_down();
    // Least-pressured remote decode instance that is up; unless the
    // local decode is dead, the target must also be genuinely cooler
    // (below the low-water mark) or the copy just moves the problem.
    std::size_t best = CrossPodBalancer::npos;
    double best_frac = 0.0;
    for (std::size_t j = 0; j < pods_.size(); ++j) {
        if (j == k)
            continue;
        engine::Instance &d = pods_[j]->decode_instance();
        if (d.is_down())
            continue;
        double f = d.kv_used_fraction();
        if (!forced && f >= cfg_.offload_lowwater)
            continue;
        if (best == CrossPodBalancer::npos || f < best_frac) {
            best = j;
            best_frac = f;
        }
    }
    if (best == CrossPodBalancer::npos) {
        // Refused (no cooler pod): fall back to the local hand-off the
        // pod would have started had the cluster not claimed it.
        src.begin_local_decode_transfer(r);
        return;
    }

    ++cross_offloads_;
    audit::transition(audit(), *r, RequestState::Transferring);
    cross_transferring_[r->id] = CrossXfer{r, k, best};
    // Cross-node copies cannot overlap the (finished) prefill pass, so
    // the full prompt KV crosses the fabric.
    double bytes = src.transfer().bytes_for_tokens(
        static_cast<double>(r->prompt_tokens));
    hw::SharedChannel &nic = *nics_[node_of_pod(k)];
    nic.submit(bytes, [this, r, inc] {
        auto it = cross_transferring_.find(r->id);
        if (it == cross_transferring_.end() || r->incarnation != inc)
            return; // source prefill crashed mid-copy; already re-routed
        CrossXfer x = it->second;
        cross_transferring_.erase(it);
        pods_[x.src]->prefill_instance().release_kv(r);
        balancer_.release(x.src, tokens_of(r));
        balancer_.assign(x.dst, tokens_of(r));
        home_pod_[slot_of(r)] = static_cast<std::uint32_t>(x.dst);
        pods_[x.dst]->admit_remote_decode(r);
    });
}

bool
ClusterServeSystem::maybe_redispatch_remote(Pod &src, Request *r)
{
    if (!cfg_.allow_cross_pod || pods_.size() < 2)
        return false;
    // The pod handles its own recovery while either instance lives.
    if (!src.prefill_instance().is_down() ||
        !src.decode_instance().is_down())
        return false;
    std::size_t dst =
        balancer_.least_loaded_except(src.index(), &live_pods());
    if (dst == CrossPodBalancer::npos)
        return false;
    ++cross_redispatches_;
    balancer_.release(src.index(), tokens_of(r));
    balancer_.assign(dst, tokens_of(r));
    home_pod_[slot_of(r)] = static_cast<std::uint32_t>(dst);
    pods_[dst]->on_arrival(r);
    return true;
}

void
ClusterServeSystem::sweep_cross_transfers(Pod &src,
                                          std::vector<Request *> &victims)
{
    for (auto it = cross_transferring_.begin();
         it != cross_transferring_.end();) {
        if (it->second.src == src.index()) {
            victims.push_back(it->second.r);
            it = cross_transferring_.erase(it);
        } else {
            ++it;
        }
    }
}

void
ClusterServeSystem::attach(const engine::Attachments &at)
{
    if (at.telemetry) {
        telemetry_tick_ = std::max(at.telemetry->config().sample_every, 0.0);
        for (auto &s : pod_sims_)
            at.telemetry->arm_lp(*s); // attribute pod events too
    }
    if (!pod_sims_.empty()) {
        // Each logical process traces and journals into private shards
        // stamped with its own clock (the masters read the hub clock,
        // which lags inside a window); replay() merges them back in
        // pod order.
        trace_master_ = at.trace;
        journal_master_ = at.journal;
    }
    for (std::size_t k = 0; k < pods_.size(); ++k) {
        engine::Attachments pod_at = at;
        if (trace_master_) {
            trace_shards_.push_back(
                std::make_unique<obs::TraceRecorder>(*pod_sims_[k]));
            pod_at.trace = trace_shards_.back().get();
        }
        if (journal_master_) {
            journal_shards_.push_back(
                std::make_unique<obs::DecisionJournal>());
            pod_at.journal = journal_shards_.back().get();
        }
        pods_[k]->attach(pod_at, "pod=\"" + std::to_string(k) + "\"");
    }
    for (auto &nic : nics_) {
        nic->attach(at, "interconnect", nic->name());
        if (at.faults)
            at.faults->add_shared_channel(nic.get());
        if (at.telemetry)
            nic->register_metrics(at.telemetry->registry());
    }
    // The control plane runs on the hub timeline; its failover
    // decisions journal straight into the master (merge_shards
    // stable-sorts, keeping master entries first on time ties).
    if (ctrl_)
        ctrl_->attach(at);
    if (at.faults)
        install_fault_hooks(*at.faults);
    if (!at.telemetry)
        return;
    obs::MetricRegistry &reg = at.telemetry->registry();
    reg.counter("ws_cluster_requests_routed_total", "",
                [this] {
                    return static_cast<double>(balancer_.routed());
                },
                "Requests admitted through the cross-pod balancer");
    reg.counter("ws_cluster_cross_offloads_total", "",
                [this] {
                    return static_cast<double>(cross_offloads_);
                },
                "Decode offloads shipped to another pod");
    reg.counter("ws_cluster_cross_redispatches_total", "",
                [this] {
                    return static_cast<double>(cross_redispatches_);
                },
                "Crash victims re-homed to another pod");
    if (!pod_sims_.empty()) {
        // LP engine counters; lp_ is built at replay start, so the
        // callbacks read zero until the first window.
        auto lp_counter = [this](std::uint64_t (sim::LpScheduler::*get)()
                                     const) {
            return [this, get] {
                return lp_ ? static_cast<double>((lp_.get()->*get)())
                           : 0.0;
            };
        };
        reg.counter("ws_lp_windows_total", "",
                    lp_counter(&sim::LpScheduler::windows),
                    "LP engine window phases run");
        reg.counter("ws_lp_hub_phases_total", "",
                    lp_counter(&sim::LpScheduler::hub_phases),
                    "LP engine hub phases run");
        reg.counter("ws_lp_messages_total", "",
                    lp_counter(&sim::LpScheduler::messages_posted),
                    "Cross-LP messages delivered to the hub");
        reg.counter("ws_lp_runs_total", "",
                    lp_counter(&sim::LpScheduler::lp_runs),
                    "Pod LP window runs (only LPs with events due run)");
    }
    for (std::size_t k = 0; k < pods_.size(); ++k) {
        reg.gauge("ws_cluster_pod_load",
                  "pod=\"" + std::to_string(k) + "\"",
                  [this, k] { return balancer_.load(k); },
                  "Outstanding tokens charged to each pod");
    }
    if (ctrl_) {
        ctrl::ControlPlane *cp = ctrl_.get();
        reg.gauge("ws_ctrl_term", "",
                  [cp] { return static_cast<double>(cp->max_term()); },
                  "Highest term reached by any control replica");
        reg.gauge("ws_ctrl_leader", "",
                  [cp] {
                      std::size_t l = cp->leader();
                      return l == ctrl::ControlPlane::kNone
                                 ? -1.0
                                 : static_cast<double>(l);
                  },
                  "Acting leader replica index (-1 while none)");
        reg.counter("ws_ctrl_elections_total", "",
                    [cp] { return static_cast<double>(cp->elections()); },
                    "Leader elections won");
        reg.counter("ws_ctrl_commits_total", "",
                    [cp] { return static_cast<double>(cp->commits()); },
                    "Log entries committed (leader side)");
        reg.counter("ws_ctrl_applies_total", "",
                    [cp] { return static_cast<double>(cp->applies()); },
                    "Scheduler intents applied exactly once");
        reg.counter("ws_ctrl_messages_total", "",
                    [cp] {
                        return static_cast<double>(cp->messages_sent());
                    },
                    "Protocol messages put on the control fabric");
        reg.counter("ws_ctrl_heartbeats_total", "",
                    [cp] { return static_cast<double>(cp->heartbeats()); },
                    "AppendEntries rounds fired by leaders");
        reg.gauge("ws_ctrl_pending_intents", "",
                  [cp] {
                      return static_cast<double>(cp->pending_intents());
                  },
                  "Proposed scheduler intents not yet applied");
        reg.gauge("ws_ctrl_directory_entries", "",
                  [cp] {
                      return static_cast<double>(cp->directory().size());
                  },
                  "Live entries in the KV-backup directory");
        reg.counter("ws_ctrl_failovers_total", "",
                    [cp] { return static_cast<double>(cp->failovers()); },
                    "Completed leader failovers");
    }
}

void
ClusterServeSystem::install_fault_hooks(fault::FaultInjector &inj)
{
    // Node fault domains: every instance of every pod on the node goes
    // down together under a NodeCrash.
    for (std::size_t n = 0; n < cfg_.num_nodes; ++n) {
        std::vector<engine::Instance *> group;
        for (std::size_t k = n * cfg_.pods_per_node;
             k < (n + 1) * cfg_.pods_per_node; ++k) {
            group.push_back(&pods_[k]->prefill_instance());
            group.push_back(&pods_[k]->decode_instance());
        }
        inj.add_node_group(std::move(group));
    }
    inj.set_redispatch([this](Request *r) {
        if (!ctrl_) {
            pods_[home_of(r)]->redispatch_after_fault(r);
            return;
        }
        ctrl_->propose(ctrl::CommandKind::Redispatch, r->id, [this, r] {
            // New-leader resume path: consult the KV-backup directory.
            // A hit means the victim's checkpointed prefix survives at
            // its home pod, so the re-dispatch restores from the
            // backup instead of recomputing from scratch (the pod's
            // scheduler reads its registry — the directory's backing
            // truth — when it rebuilds the plan).
            ++directory_consults_;
            const ctrl::KvDirectory::Entry *e =
                ctrl_->directory().lookup(r->id);
            if (e && e->pod == home_of(r))
                ++directory_hits_;
            pods_[home_of(r)]->redispatch_after_fault(r);
        });
    });
    if (ctrl_) {
        inj.set_ctrl_fault([this](const fault::FaultEvent &ev) {
            if (ev.kind == fault::FaultKind::LeaderCrash)
                ctrl_->on_leader_crash(ev.param, ev.target);
            else
                ctrl_->on_partition(ev.param, ev.target);
        });
    }
    inj.set_crash_hook(
        [this](engine::Instance &inst, std::vector<Request *> &victims) {
            for (auto &p : pods_) {
                if (&inst == &p->prefill_instance() ||
                    &inst == &p->decode_instance()) {
                    p->on_instance_crashed(inst, victims);
                    return;
                }
            }
        });
}

void
ClusterServeSystem::replay(const std::vector<workload::Request> &trace,
                           double horizon)
{
    home_pod_.assign(trace.size(), kNoHome);
    outstanding_ = trace.size();
    if (!pod_sims_.empty()) {
        sim::LpScheduler::Config lc;
        lc.lookahead = ctl_latency_;
        lc.window = cfg_.lp_window;
        lc.tick = telemetry_tick_;
        lp_ = std::make_unique<sim::LpScheduler>(sim_, lc);
        for (auto &s : pod_sims_)
            lp_->add_lp(*s);
    }
    if (ctrl_)
        ctrl_->start();
    schedule_arrivals(trace);
    if (lp_)
        lp_->run_until(horizon);
    else
        sim_.run_until(horizon);
    // Fold the per-pod observability shards back into the shared
    // exports, in pod order, BEFORE run() appends request lifecycles
    // and counter tracks. Each shard stamped its events with its own
    // pod clock (the hub clock lags inside a window), and the merge
    // fixes the tie order at equal times: master first, then pod index.
    if (trace_master_) {
        for (auto &shard : trace_shards_)
            trace_master_->absorb_shard(*shard);
    }
    if (journal_master_) {
        std::vector<obs::DecisionJournal *> shards;
        shards.reserve(journal_shards_.size());
        for (auto &s : journal_shards_)
            shards.push_back(s.get());
        journal_master_->merge_shards(shards);
    }
}

void
ClusterServeSystem::fill_system_metrics(metrics::RunMetrics &m)
{
    if (ctrl_) {
        m.leader_crashes = ctrl_->leader_crashes();
        m.control_partitions = ctrl_->partitions();
        m.ctrl_elections = ctrl_->elections();
        m.ctrl_commits = ctrl_->commits();
        m.failovers = ctrl_->failovers();
        m.failover_latency = ctrl_->failover_latency();
    }
}

std::uint64_t
ClusterServeSystem::total_dispatches() const
{
    std::uint64_t sum = 0;
    for (const auto &p : pods_)
        sum += p->scheduler().coordinator().dispatches();
    return sum;
}

std::uint64_t
ClusterServeSystem::total_reschedules() const
{
    std::uint64_t sum = 0;
    for (const auto &p : pods_)
        sum += p->scheduler().coordinator().reschedules();
    return sum;
}

std::uint64_t
ClusterServeSystem::total_migrations() const
{
    std::uint64_t sum = 0;
    for (const auto &p : pods_)
        sum += p->migration().completed();
    return sum;
}

std::uint64_t
ClusterServeSystem::total_backups() const
{
    std::uint64_t sum = 0;
    for (const auto &p : pods_)
        sum += p->backup().backups_taken();
    return sum;
}

} // namespace windserve::core
