/**
 * @file
 * DistServe-style baseline (Zhong et al., OSDI'24) as evaluated in the
 * paper: static phase disaggregation with FCFS local scheduling and a
 * synchronous post-prefill KV transfer.
 *
 * Differences from WindServe, per the paper's analysis (§2.2):
 *  - no cross-instance coordination: prefills always run on the prefill
 *    instance, decodes always on the decode instance;
 *  - the prefill instance does not retain KV, so all active KV lives in
 *    the decode instance (swap pressure under load, Fig. 1a);
 *  - the KV transfer starts only after prefill completes and sits on
 *    the request's critical path (~65 ms for a 2048-token OPT-13B
 *    context over PCIe).
 *
 * Multi-node mode is a pass-through replication: `num_replicas`
 * independent prefill/decode pairs (one per node/pod of a cluster
 * experiment) with round-robin request routing and no cross-pair
 * traffic — DistServe has no cross-instance scheduler to shard. A
 * single replica is byte-identical to the historical single-pair
 * system.
 */
#pragma once

#include <map>
#include <memory>

#include "engine/instance.hpp"
#include "engine/serving_system.hpp"
#include "hw/topology.hpp"
#include "transfer/kv_transfer.hpp"

namespace windserve::baselines {

/** Configuration of a DistServe deployment. */
struct DistServeConfig {
    model::ModelSpec model = model::ModelSpec::opt_13b();
    hw::TopologyConfig topology;
    model::ParallelismConfig prefill_parallelism{2, 1};
    model::ParallelismConfig decode_parallelism{2, 1};
    model::CostModelParams cost_params;
    transfer::KvTransferConfig transfer{
        transfer::TransferPolicy::Synchronous, 0.05, 0.25, ""};
    std::size_t block_size = 16;
    std::size_t max_batch_size = 256;
    std::size_t max_prefill_tokens = 4096;
    /** Independent prefill/decode pairs (multi-node pass-through). */
    std::size_t num_replicas = 1;
    /** Preempt to host memory on KV exhaustion (park when disabled). */
    bool swap_enabled = true;
    /** Host DRAM budget per instance's swap pool. */
    double host_memory_bytes = 256e9;
    /** Override the derived per-instance KV capacity (tokens); 0 keeps
     *  the cost-model value. */
    std::size_t kv_capacity_tokens_override = 0;
    double exec_noise_sigma = 0.03;
    std::uint64_t seed = 7;
};

/** See file comment. */
class DistServeSystem : public engine::ServingSystem
{
  public:
    explicit DistServeSystem(DistServeConfig cfg);

    std::string name() const override { return "DistServe"; }
    std::size_t num_gpus() const override;

    engine::Instance &prefill_instance() { return *pairs_[0].prefill; }
    engine::Instance &decode_instance() { return *pairs_[0].decode; }
    std::size_t num_replicas() const { return pairs_.size(); }
    engine::Instance &replica_prefill(std::size_t i)
    {
        return *pairs_.at(i).prefill;
    }
    engine::Instance &replica_decode(std::size_t i)
    {
        return *pairs_.at(i).decode;
    }
    sim::Simulator &simulator() override { return sim_; }

  protected:
    void replay(const std::vector<workload::Request> &trace,
                double horizon) override;
    void fill_system_metrics(metrics::RunMetrics &m) override;
    void attach(const engine::Attachments &at) override;

  private:
    /** One prefill/decode pair with its private transfer path. */
    struct Pair {
        std::unique_ptr<engine::Instance> prefill;
        std::unique_ptr<engine::Instance> decode;
        std::unique_ptr<transfer::KvTransferManager> xfer;
        /** In-flight post-prefill KV copies (a prefill crash sweeps
         *  these; they sit in no instance queue). */
        std::map<workload::RequestId, workload::Request *> transferring;
    };

    void on_prefill_complete(std::size_t pair, workload::Request *r);

    DistServeConfig cfg_;
    sim::Simulator sim_;
    hw::Topology topo_;
    std::vector<Pair> pairs_;
};

} // namespace windserve::baselines
