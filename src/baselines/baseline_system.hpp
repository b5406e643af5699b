/**
 * @file
 * The two baselines the paper evaluates WindServe against (§5), as two
 * replica layouts of one system:
 *
 *  - DistServe (Zhong et al., OSDI'24): static phase disaggregation
 *    with FCFS local scheduling and a synchronous post-prefill KV
 *    transfer. Per the paper's analysis (§2.2) there is no
 *    cross-instance coordination: prefills always run on the prefill
 *    instance, decodes always on the decode instance; the prefill
 *    instance does not retain KV, so all active KV lives in the decode
 *    instance (swap pressure under load, Fig. 1a); and the KV transfer
 *    starts only after prefill completes and sits on the request's
 *    critical path (~65 ms for a 2048-token OPT-13B context over PCIe).
 *  - vLLM v0.4.2: continuous batching with PagedAttention block
 *    management and chunked prefill, prefill and decode sharing every
 *    engine (the paper's "recommended placement": TP within an NVLink
 *    pair, replicated across pairs). No KV ever crosses engines.
 *
 * Either way the deployment is N independent replicas on one simulator
 * with round-robin request routing and no cross-replica traffic. A
 * DistServe replica is a prefill/decode pair with its private transfer
 * path (one per node/pod of a cluster experiment); a vLLM replica is
 * one co-located engine. Preemption under memory pressure swaps to host
 * DRAM. A crash victim recomputes its full prefill from scratch: no KV
 * backups and no role flexibility, the expensive recovery path
 * WindServe's backup-aware re-dispatch is benchmarked against.
 */
#pragma once

#include <vector>

#include "engine/instance.hpp"
#include "engine/serving_system.hpp"
#include "hw/topology.hpp"
#include "transfer/kv_transfer.hpp"

namespace windserve::baselines {

/** Configuration of a DistServe deployment. */
struct DistServeConfig : engine::SystemConfig {
    model::ParallelismConfig prefill_parallelism{2, 1};
    model::ParallelismConfig decode_parallelism{2, 1};
    /** Independent prefill/decode pairs (multi-node pass-through). */
    std::size_t num_replicas = 1;
};

/** Configuration of the co-located vLLM deployment (chunked prefill
 *  always on). */
struct VllmConfig : engine::SystemConfig {
    /** Parallelism of each engine (TP within an NVLink pair). */
    model::ParallelismConfig engine_parallelism{2, 1};
    /** Number of identical engines. */
    std::size_t num_engines = 2;
    /** Per-iteration prefill token budget (vLLM max_num_batched_tokens). */
    std::size_t chunk_size = 2048;
};

/** See file comment. */
class BaselineSystem : public engine::ServingSystem
{
  public:
    /** `num_replicas` prefill/decode pairs; one replica keeps the names
     *  "distserve/prefill", "distserve/decode" and "kv/p2d". */
    explicit BaselineSystem(DistServeConfig cfg);
    /** `num_engines` co-located engines "vllm/engine{e}". */
    explicit BaselineSystem(VllmConfig cfg);

    std::string name() const override { return name_; }
    std::size_t num_gpus() const override { return num_gpus_; }

    std::size_t num_replicas() const override { return pairs_.size(); }
    engine::Instance &prefill(std::size_t i) override
    {
        return *pairs_.at(i).prefill;
    }
    engine::Instance &decode(std::size_t i) override
    {
        return pairs_.at(i).decode_side();
    }

  protected:
    /** Round-robin over the replicas in trace order. */
    void on_arrival(workload::Request *r) override;
    void attach(const engine::Attachments &at) override;

  private:
    /** Install every replica's callbacks (once its members exist). */
    void wire();
    void on_prefill_complete(std::size_t i, workload::Request *r);
    void note_decode_ready(workload::Request *r);

    std::string name_;
    std::size_t num_gpus_ = 0;
    std::vector<transfer::InstancePair> pairs_;
};

} // namespace windserve::baselines
