/**
 * @file
 * A serving instance: one model replica on a TPxPP GPU group.
 *
 * An Instance owns a waiting queue per phase, a paged KV block manager,
 * pipeline-parallel decode groups, and the execution modes the paper
 * compares:
 *  - pure prefill batches (prefill instance steady state),
 *  - continuous-batching decode iterations,
 *  - chunked-prefill hybrid iterations (vLLM baseline; also the prefill
 *    instance whenever migrated decodes are present, §3.3),
 *  - regular hybrid passes (WindServe-no-split ablation),
 *  - stream-based disaggregation (assist prefills in a concurrent
 *    stream on the decode instance, §3.4),
 *  - swap-based preemption to host memory when KV blocks run out.
 *
 * Instances are passive: systems drive them through enqueue_* calls and
 * react through callbacks. pump() is safe to call at any time.
 */
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/batch.hpp"
#include "engine/execution.hpp"
#include "engine/local_scheduler.hpp"
#include "hw/transfer_engine.hpp"
#include "kvcache/block_manager.hpp"
#include "kvcache/swap_pool.hpp"
#include "simcore/simulator.hpp"
#include "simcore/utilization.hpp"

namespace windserve::obs {
class TraceRecorder;
class MetricRegistry;
class Histogram;
}

namespace windserve::engine {

/** What the instance is provisioned for. */
enum class InstanceRole { Prefill, Decode, Colocated };

const char *to_string(InstanceRole role);

/** Static configuration of one instance. */
struct InstanceConfig {
    std::string name = "instance";
    InstanceRole role = InstanceRole::Prefill;
    std::size_t block_size = 16;
    /** Max decoding requests across all pipeline groups. */
    std::size_t max_batch_size = 256;
    /** Token budget of one prefill forward pass. */
    std::size_t max_prefill_tokens = 4096;
    std::size_t max_prefill_requests = 64;
    /** Chunked-prefill chunk size (vLLM default 512). */
    std::size_t chunk_size = 512;
    /** Use chunked prefill whenever prefill and decode jobs co-exist. */
    bool chunked_prefill = false;
    /** Run assist prefills in a separate stream (paper §3.4). */
    bool stream_based_disaggregation = false;
    /** Preempt to host memory on KV exhaustion (vLLM behaviour). */
    bool swap_enabled = true;
    /** Execution-time jitter sigma. */
    double exec_noise_sigma = 0.03;
    /** Host DRAM budget available to this instance's swap pool. */
    double host_memory_bytes = 256e9;
    /**
     * Override the cost-model-derived KV capacity (tokens); 0 keeps the
     * derived value. Used by tests and capacity-sensitivity studies.
     */
    std::size_t kv_capacity_tokens_override = 0;
};

/** An instance of @p cfg (a serving system's config: WindServe's,
 *  DistServe's or vLLM's) with the seven knobs they all share. */
template <typename Config>
InstanceConfig
instance_config(const Config &cfg, std::string name, InstanceRole role)
{
    InstanceConfig ic;
    ic.name = std::move(name);
    ic.role = role;
    ic.block_size = cfg.block_size;
    ic.max_batch_size = cfg.max_batch_size;
    ic.max_prefill_tokens = cfg.max_prefill_tokens;
    ic.exec_noise_sigma = cfg.exec_noise_sigma;
    ic.swap_enabled = cfg.swap_enabled;
    ic.host_memory_bytes = cfg.host_memory_bytes;
    ic.kv_capacity_tokens_override = cfg.kv_capacity_tokens_override;
    return ic;
}

/** Hooks a serving system installs on its instances. */
struct InstanceCallbacks {
    /** Prompt fully processed; first token emitted. */
    std::function<void(Request *)> on_prefill_complete;
    /** Request generated its final token; KV already released. */
    std::function<void(Request *)> on_finished;
    /** An assist prefill could not get KV here; caller must requeue. */
    std::function<void(Request *)> on_assist_bounce;
    /** Fired after every completed pass (coordinator polling hook). */
    std::function<void()> on_step;
    /** Pure prefill pass observed: (tokens, duration). */
    std::function<void(double, double)> on_prefill_observation;
};

/**
 * One serving instance (see file comment).
 */
class Instance
{
  public:
    /**
     * @param sim        shared simulation kernel
     * @param cfg        instance configuration
     * @param cost       cost model for this (model, gpus, parallelism)
     * @param rng        jitter source, forked per instance
     * @param host_link  GPU<->host path used for KV swapping
     * @throws std::invalid_argument naming the instance and the field
     *         when a size in @p cfg is 0, exec_noise_sigma or
     *         host_memory_bytes is negative or not finite, or the KV
     *         capacity holds no block of block_size tokens
     */
    Instance(sim::Simulator &sim, InstanceConfig cfg, model::CostModel cost,
             sim::Rng rng, hw::Link host_link);

    const InstanceConfig &config() const { return cfg_; }
    const model::CostModel &cost() const { return sampler_.cost(); }
    const std::string &name() const { return cfg_.name; }

    InstanceCallbacks callbacks;

    // ------------------------------------------------------------------
    // Request entry points
    // ------------------------------------------------------------------

    /** Add a request to the prefill waiting queue (FCFS). */
    void enqueue_prefill(Request *r);

    /**
     * Add a request to the decode waiting queue. @p kv_resident means
     * its KV already lives in this instance's block manager (assist
     * prefill, colocated prefill, or completed migration).
     */
    void enqueue_decode(Request *r, bool kv_resident);

    /** Dispatch a prefill job to this (decode) instance (Algorithm 1). */
    void enqueue_assist_prefill(Request *r);

    /** Try to start any runnable work. Idempotent. */
    void pump();

    // ------------------------------------------------------------------
    // Migration support (used by transfer::StallFreeMigration)
    // ------------------------------------------------------------------

    /** Stop decoding @p r here (it stays allocated until release_kv). */
    void pause_decoding(Request *r);

    /** Free a request's KV blocks here. */
    void release_kv(Request *r);

    /** True if @p r is currently in a running decode group. */
    bool is_decoding(const Request *r) const;

    // ------------------------------------------------------------------
    // Introspection for the Global Scheduler
    // ------------------------------------------------------------------

    kvcache::BlockManager &blocks() { return blocks_; }
    const kvcache::BlockManager &blocks() const { return blocks_; }
    kvcache::SwapPool &swap_pool() { return swap_; }
    const kvcache::SwapPool &swap_pool() const { return swap_; }

    /** Fraction of KV block capacity in use — the memory-pressure
     *  signal cross-pod balancers route on. */
    double kv_used_fraction() const
    {
        std::size_t total = blocks_.total_blocks();
        if (total == 0)
            return 0.0;
        return static_cast<double>(blocks_.used_blocks()) /
               static_cast<double>(total);
    }

    /** Prompt tokens waiting in the prefill queue (incl. unchunked rest). */
    std::size_t waiting_prefill_tokens() const;

    /** Requests waiting in the prefill queue. */
    std::size_t waiting_prefill_requests() const { return prefill_q_.size(); }

    /** Estimated seconds until in-flight prefill passes finish. */
    double inflight_prefill_remaining() const;

    /** Assist prefill tokens queued or in the SBD stream. */
    std::size_t assist_tokens_pending() const;

    /** Requests waiting for decode admission. */
    std::size_t waiting_decode_requests() const { return decode_q_.size(); }

    /** Decoding requests across all groups. */
    std::size_t running_decode_requests() const;

    /** All running decode groups (for victim selection). */
    const std::vector<DecodeGroup> &groups() const { return groups_; }

    /** True while the SBD prefill stream is active. */
    bool sbd_stream_active() const { return sbd_active_; }

    /** Lifetime swap-out event count (Fig. 1a). */
    std::uint64_t swap_out_events() const { return swap_.swap_out_events(); }

    /** Mean achieved compute utilization from construction to now
     *  (Fig. 2 "Tensor Core"). */
    double mean_compute_utilization();

    /** Mean achieved HBM bandwidth utilization from construction to
     *  now (Fig. 2 "Mem BW"). */
    double mean_bandwidth_utilization();

    /** Total decode iterations executed. */
    std::uint64_t decode_iterations() const { return decode_iters_; }

    /** Total pure prefill passes executed. */
    std::uint64_t prefill_passes() const { return prefill_passes_; }

    /**
     * Attach @p at to this instance and everything it owns (block
     * manager, swap pool, host DMA channel). at.trace records execution
     * spans (prefill slots, SBD stream, decode groups), local-scheduler
     * instants (batch formation, chunk admission, stream split,
     * swap-out/in) and host-link DMA spans, with the instance name as
     * the trace process; at.audit sees every request state change.
     * Null pointers (the default) disable either with zero behavioural
     * change.
     */
    void attach(const Attachments &at);

    /**
     * Register this instance's telemetry instruments on @p reg: queue
     * depths, batch-occupancy histograms, per-resource busy fractions,
     * KV-block and swap-pool utilization, crash state and lifetime
     * counters. Labels carry `instance="<name>"`. Pull callbacks read
     * live introspection state; the registered histograms become this
     * instance's push endpoints for batch sizes / prefill pass tokens.
     */
    void register_metrics(obs::MetricRegistry &reg);

    // ------------------------------------------------------------------
    // fault injection (fault::FaultInjector)
    // ------------------------------------------------------------------

    /**
     * The instance dies: all on-GPU KV is lost and its blocks freed,
     * host swap-pool residue is dropped, every queued or running
     * request is evicted, and in-flight completion events are
     * invalidated (epoch bump). The instance refuses work until
     * repair(). @return the evicted requests, for re-dispatch; foreign
     * block holders (e.g. backup copies) lose their blocks but are not
     * victims — their owner reconciles them via the crash hook.
     */
    std::vector<Request *> crash();

    /** Bring a crashed instance back up, empty and at full capacity. */
    void repair();

    /** True between crash() and repair(). */
    bool is_down() const { return down_; }

    /** Execution-time multiplier for straggler windows; 1.0 restores
     *  nominal speed. Applies to passes started after the call. */
    void set_slowdown(double factor) { slowdown_ = factor; }
    double slowdown() const { return slowdown_; }

  private:
    void schedule_pump();

    // execution paths
    void try_start_prefill_slots();
    void complete_prefill_batch(std::size_t slot);
    void try_start_sbd_stream();
    void complete_sbd_stream();
    void try_start_group(std::size_t g);
    void complete_group(std::size_t g);
    void try_swap_in();

    // helpers
    bool chunk_mode_active() const;
    void finish_prefill_of(Request *r);
    void finish_request(Request *r);
    void handle_block_exhaustion(Request *r, std::size_t g);
    /** @return false if the host pool rejected the victim (full). */
    bool swap_out(Request *r);
    void refresh_utilization();
    std::size_t max_per_group() const;

    sim::Simulator &sim_;
    InstanceConfig cfg_;
    ExecutionSampler sampler_;
    kvcache::BlockManager blocks_;
    kvcache::SwapPool swap_;
    hw::Channel host_channel_;

    std::deque<Request *> prefill_q_;
    std::deque<Request *> decode_q_;
    std::deque<Request *> assist_q_;

    // pure prefill pipeline slots (one per PP stage)
    std::vector<PrefillBatch> slots_;
    std::vector<bool> slot_busy_;

    // chunked prefill state: one in-flight chunking request per
    // pipeline group, so chunked prefill keeps the PP parallelism that
    // pure prefill slots have (different requests pipeline; chunks of
    // one request stay sequential within its group).
    std::vector<Request *> chunk_head_; ///< per-group chunking request

    // SBD stream
    bool sbd_active_ = false;
    std::vector<Request *> sbd_batch_;
    std::size_t sbd_tokens_ = 0;
    double sbd_end_ = 0.0;

    std::vector<DecodeGroup> groups_;

    // per group: hybrid assist jobs attached to its in-flight pass
    std::vector<std::vector<Request *>> hybrid_assists_;
    // per group: chunk tokens attached to its in-flight pass (0 = none)
    std::vector<std::size_t> group_chunk_;

    std::unordered_set<kvcache::ReqId> swap_ready_;   ///< swap-out done
    std::unordered_set<kvcache::ReqId> swapping_in_;  ///< swap-in running

    sim::UtilizationTracker compute_util_;
    sim::UtilizationTracker bw_util_;

    std::uint64_t decode_iters_ = 0;
    std::uint64_t prefill_passes_ = 0;
    bool pump_scheduled_ = false;
    bool down_ = false;
    double slowdown_ = 1.0;
    /** Bumped by crash(); completion events capture it and no-op when
     *  stale, severing the dead incarnation's in-flight work. */
    std::uint64_t epoch_ = 0;
    obs::TraceRecorder *trace_ = nullptr;
    audit::SimAuditor *audit_ = nullptr;

    // telemetry: push histograms (null = off) and precomputed
    // self-profiler source tags for the schedule sites
    obs::Histogram *decode_batch_hist_ = nullptr;
    obs::Histogram *prefill_tokens_hist_ = nullptr;
    std::string src_pump_;
    std::string src_prefill_;
    std::string src_sbd_;
    std::string src_decode_;
};

} // namespace windserve::engine
