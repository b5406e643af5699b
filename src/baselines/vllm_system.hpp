/**
 * @file
 * vLLM-style co-located baseline (v0.4.2 configuration from §5):
 * continuous batching with PagedAttention block management and
 * chunked-prefill enabled, prefill and decode sharing every engine.
 *
 * The deployment runs N identical engines (the paper's "recommended
 * placement": TP within an NVLink pair, replicated across pairs) with
 * round-robin request routing. No KV ever crosses engines; preemption
 * under memory pressure swaps to host DRAM.
 */
#pragma once

#include <memory>

#include "engine/instance.hpp"
#include "engine/serving_system.hpp"
#include "hw/topology.hpp"

namespace windserve::baselines {

/** Configuration of the co-located vLLM deployment. */
struct VllmConfig {
    model::ModelSpec model = model::ModelSpec::opt_13b();
    hw::TopologyConfig topology;
    /** Parallelism of each engine (TP within an NVLink pair). */
    model::ParallelismConfig engine_parallelism{2, 1};
    /** Number of identical engines. */
    std::size_t num_engines = 2;
    model::CostModelParams cost_params;
    std::size_t block_size = 16;
    std::size_t max_batch_size = 256;
    std::size_t max_prefill_tokens = 4096;
    /** Per-iteration prefill token budget (vLLM max_num_batched_tokens). */
    std::size_t chunk_size = 2048;
    bool chunked_prefill = true;
    /** Preempt to host memory on KV exhaustion (park when disabled). */
    bool swap_enabled = true;
    /** Host DRAM budget per engine's swap pool. */
    double host_memory_bytes = 256e9;
    /** Override the derived per-engine KV capacity (tokens); 0 keeps
     *  the cost-model value. */
    std::size_t kv_capacity_tokens_override = 0;
    double exec_noise_sigma = 0.03;
    std::uint64_t seed = 7;
};

/** See file comment. */
class VllmColocatedSystem : public engine::ServingSystem
{
  public:
    explicit VllmColocatedSystem(VllmConfig cfg);

    std::string name() const override { return "vLLM"; }
    std::size_t num_gpus() const override;

    engine::Instance &engine_instance(std::size_t i) { return *engines_[i]; }
    std::size_t num_engines() const { return engines_.size(); }
    sim::Simulator &simulator() override { return sim_; }

  protected:
    void replay(const std::vector<workload::Request> &trace,
                double horizon) override;
    void fill_system_metrics(metrics::RunMetrics &m) override;
    void attach(const engine::Attachments &at) override;

  private:
    VllmConfig cfg_;
    sim::Simulator sim_;
    hw::Topology topo_;
    std::vector<std::unique_ptr<engine::Instance>> engines_;
};

} // namespace windserve::baselines
