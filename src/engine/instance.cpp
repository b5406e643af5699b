#include "engine/instance.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "audit/sim_auditor.hpp"
#include "obs/metric_registry.hpp"
#include "obs/trace_recorder.hpp"
#include "simcore/log.hpp"

namespace windserve::engine {

using workload::RequestState;

const char *
to_string(InstanceRole role)
{
    switch (role) {
      case InstanceRole::Prefill:
        return "prefill";
      case InstanceRole::Decode:
        return "decode";
      case InstanceRole::Colocated:
        return "colocated";
    }
    return "unknown";
}

InstanceConfig
SystemConfig::instance(std::string name, InstanceRole role) const
{
    InstanceConfig ic;
    ic.name = std::move(name);
    ic.role = role;
    ic.block_size = block_size;
    ic.max_batch_size = max_batch_size;
    ic.max_prefill_tokens = max_prefill_tokens;
    ic.exec_noise_sigma = exec_noise_sigma;
    ic.swap_enabled = swap_enabled;
    ic.host_memory_bytes = host_memory_bytes;
    ic.kv_capacity_tokens_override = kv_capacity_tokens_override;
    return ic;
}

namespace {

/** @return @p cfg unchanged; throws std::invalid_argument naming the
 *  instance and the first out-of-range field. */
InstanceConfig
validated(InstanceConfig cfg)
{
    auto fail = [&cfg](const std::string &what) {
        throw std::invalid_argument("InstanceConfig '" + cfg.name +
                                    "': " + what);
    };
    for (auto [name, v] : {std::pair{"block_size", cfg.block_size},
                           std::pair{"max_batch_size", cfg.max_batch_size},
                           std::pair{"max_prefill_tokens",
                                     cfg.max_prefill_tokens},
                           std::pair{"chunk_size", cfg.chunk_size}}) {
        if (v < 1)
            fail(std::string(name) + " must be >= 1, got 0");
    }
    for (auto [name, v] : {std::pair{"exec_noise_sigma",
                                     cfg.exec_noise_sigma},
                           std::pair{"host_memory_bytes",
                                     cfg.host_memory_bytes}}) {
        if (!std::isfinite(v) || v < 0.0)
            fail(std::string(name) + " must be finite and >= 0, got " +
                 std::to_string(v));
    }
    return cfg;
}

/** The KV blocks of @p cfg 's capacity under @p cost; throws
 *  std::invalid_argument naming the instance when not one block fits. */
std::size_t
kv_blocks(const InstanceConfig &cfg, const model::CostModel &cost)
{
    const std::size_t tokens =
        cfg.kv_capacity_tokens_override
            ? cfg.kv_capacity_tokens_override
            : static_cast<std::size_t>(cost.kv_capacity_tokens());
    if (tokens < cfg.block_size)
        throw std::invalid_argument(
            "InstanceConfig '" + cfg.name + "': KV capacity of " +
            std::to_string(tokens) + " tokens holds no block of block_size " +
            std::to_string(cfg.block_size));
    return tokens / cfg.block_size;
}

} // namespace

Instance::Instance(sim::Simulator &sim, InstanceConfig cfg,
                   model::CostModel cost, sim::Rng rng, hw::Link host_link)
    : sim_(sim), cfg_(validated(std::move(cfg))),
      sampler_(cost, std::move(rng), cfg_.exec_noise_sigma),
      blocks_(kv_blocks(cfg_, cost), cfg_.block_size),
      swap_(cfg_.host_memory_bytes, cost.model().kv_bytes_per_token()),
      host_channel_(sim, host_link, cfg_.name + "/host"),
      compute_util_(sim.now()), bw_util_(sim.now()),
      src_pump_(cfg_.name + "/pump"), src_prefill_(cfg_.name + "/prefill"),
      src_sbd_(cfg_.name + "/sbd"), src_decode_(cfg_.name + "/decode")
{
    std::size_t pp = cost.parallelism().pp;
    slots_.resize(pp);
    slot_busy_.assign(pp, false);
    groups_.resize(pp);
    chunk_head_.assign(pp, nullptr);
    hybrid_assists_.resize(pp);
    group_chunk_.assign(pp, 0);
}

std::size_t
Instance::max_per_group() const
{
    std::size_t pp = groups_.size();
    return std::max<std::size_t>(1, cfg_.max_batch_size / pp);
}

void
Instance::attach(const Attachments &at)
{
    trace_ = at.trace;
    audit_ = at.audit;
    blocks_.attach(at, cfg_.name);
    swap_.attach(at, cfg_.name);
    host_channel_.attach(at, cfg_.name, "host-dma");
}

void
Instance::register_metrics(obs::MetricRegistry &reg)
{
    const std::string inst = "instance=\"" + cfg_.name + "\"";
    reg.gauge("ws_queue_requests", inst + ",queue=\"prefill\"",
              [this] {
                  return static_cast<double>(waiting_prefill_requests());
              },
              "Requests waiting or running per instance queue");
    reg.gauge("ws_queue_requests", inst + ",queue=\"decode_waiting\"",
              [this] {
                  return static_cast<double>(waiting_decode_requests());
              });
    reg.gauge("ws_queue_requests", inst + ",queue=\"decode_running\"",
              [this] {
                  return static_cast<double>(running_decode_requests());
              });
    reg.gauge("ws_queue_tokens", inst + ",queue=\"prefill\"",
              [this] {
                  return static_cast<double>(waiting_prefill_tokens());
              },
              "Tokens pending per instance queue");
    reg.gauge("ws_queue_tokens", inst + ",queue=\"assist\"",
              [this] {
                  return static_cast<double>(assist_tokens_pending());
              });
    reg.gauge("ws_gpu_busy", inst + ",resource=\"compute\"",
              [this] { return compute_util_.level(); },
              "Instantaneous busy fraction per GPU resource");
    reg.gauge("ws_gpu_busy", inst + ",resource=\"membw\"",
              [this] { return bw_util_.level(); });
    reg.gauge("ws_kv_block_util", inst,
              [this] { return blocks_.occupancy(); },
              "KV block-manager occupancy fraction");
    reg.gauge("ws_swap_pool_bytes", inst,
              [this] { return swap_.used_bytes(); },
              "Host swap-pool bytes in use");
    reg.gauge("ws_instance_up", inst,
              [this] { return down_ ? 0.0 : 1.0; },
              "1 while the instance is up, 0 while crashed");
    reg.counter("ws_decode_iterations_total", inst,
                [this] { return static_cast<double>(decode_iters_); },
                "Decode iterations executed");
    reg.counter("ws_prefill_passes_total", inst,
                [this] { return static_cast<double>(prefill_passes_); },
                "Pure prefill (and SBD stream) passes executed");
    reg.counter("ws_swap_out_events_total", inst,
                [this] {
                    return static_cast<double>(swap_.swap_out_events());
                },
                "Lifetime swap-out preemptions");
    decode_batch_hist_ =
        reg.histogram("ws_decode_batch_size", inst,
                      obs::Histogram::Options{1.0, 2.0, 10},
                      "Decode batch size at pass start");
    prefill_tokens_hist_ =
        reg.histogram("ws_prefill_pass_tokens", inst,
                      obs::Histogram::Options{64.0, 2.0, 10},
                      "Prompt tokens per prefill pass");
}

// ---------------------------------------------------------------------
// entry points
// ---------------------------------------------------------------------

void
Instance::schedule_pump()
{
    // Defer to a zero-delay event so requests enqueued at the same
    // simulated instant (e.g. a burst arrival) coalesce into one batch
    // instead of the first one racing ahead alone.
    if (pump_scheduled_)
        return;
    pump_scheduled_ = true;
    sim::SourceScope src(sim_, src_pump_);
    sim_.schedule(0.0, [this] {
        pump_scheduled_ = false;
        pump();
    });
}

void
Instance::enqueue_prefill(Request *r)
{
    audit::transition(audit_, *r, RequestState::WaitingPrefill);
    if (r->prefill_enqueue_time == workload::kNoTime)
        r->prefill_enqueue_time = sim_.now();
    prefill_q_.push_back(r);
    schedule_pump();
}

void
Instance::enqueue_decode(Request *r, bool kv_resident)
{
    audit::transition(audit_, *r, RequestState::WaitingDecode);
    if (r->decode_enqueue_time == workload::kNoTime)
        r->decode_enqueue_time = sim_.now();
    if (!kv_resident) {
        // KV arrives with the request (post-transfer); the block manager
        // allocation happens at admission.
        assert(!blocks_.holds(r->id));
    }
    decode_q_.push_back(r);
    schedule_pump();
}

void
Instance::enqueue_assist_prefill(Request *r)
{
    audit::transition(audit_, *r, RequestState::WaitingPrefill);
    r->prefill_dispatched = true;
    if (r->prefill_enqueue_time == workload::kNoTime)
        r->prefill_enqueue_time = sim_.now();
    assist_q_.push_back(r);
    schedule_pump();
}

// ---------------------------------------------------------------------
// mode helpers
// ---------------------------------------------------------------------

bool
Instance::chunk_mode_active() const
{
    if (!cfg_.chunked_prefill)
        return false;
    if (cfg_.role == InstanceRole::Colocated)
        return true;
    // Prefill instance: chunk only while migrated decodes are present
    // (paper §3.3: "if there are decoding jobs in the prefill instance,
    // the prefill jobs in it would be converted to chunked-prefill").
    return cfg_.role == InstanceRole::Prefill &&
           (running_decode_requests() > 0 || !decode_q_.empty());
}

void
Instance::pump()
{
    if (down_)
        return;
    try_swap_in();
    if (!chunk_mode_active() && cfg_.role != InstanceRole::Colocated)
        try_start_prefill_slots();
    if (cfg_.stream_based_disaggregation)
        try_start_sbd_stream();
    // Admit waiting decodes before kicking groups.
    admit_decodes(decode_q_, groups_, max_per_group(), blocks_);
    for (std::size_t g = 0; g < groups_.size(); ++g)
        try_start_group(g);
    refresh_utilization();
}

// ---------------------------------------------------------------------
// pure prefill pipeline slots
// ---------------------------------------------------------------------

void
Instance::try_start_prefill_slots()
{
    sim::SourceScope src(sim_, src_prefill_);
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (slot_busy_[s] || prefill_q_.empty())
            continue;
        constexpr std::size_t kMaxPrefillRequests = 64;
        PrefillBatchLimits limits{cfg_.max_prefill_tokens,
                                  kMaxPrefillRequests};
        PrefillBatch batch = form_prefill_batch(prefill_q_, limits, blocks_);
        if (batch.empty())
            return; // KV pressure: wait for blocks
        for (Request *r : batch.requests) {
            if (r->prefill_start_time == workload::kNoTime)
                r->prefill_start_time = sim_.now();
            audit::transition(audit_, *r, RequestState::Prefilling);
        }
        double dur =
            sampler_.prefill(static_cast<double>(batch.total_tokens));
        dur *= slowdown_;
        batch.started = sim_.now();
        batch.expected_end = sim_.now() + dur;
        if (trace_) {
            trace_->instant(
                sim_.now(), obs::Category::Scheduler, cfg_.name,
                "local-scheduler", "prefill-batch",
                {obs::num_arg("requests",
                              std::uint64_t(batch.requests.size())),
                 obs::num_arg("tokens", std::uint64_t(batch.total_tokens))});
            trace_->span(
                obs::Category::Gpu, cfg_.name, "slot" + std::to_string(s),
                "prefill", sim_.now(), dur,
                {obs::num_arg("tokens", std::uint64_t(batch.total_tokens)),
                 obs::num_arg("requests",
                              std::uint64_t(batch.requests.size()))});
        }
        if (prefill_tokens_hist_)
            prefill_tokens_hist_->observe(
                static_cast<double>(batch.total_tokens));
        slots_[s] = std::move(batch);
        slot_busy_[s] = true;
        sim_.schedule(dur, [this, s, e = epoch_] {
            if (e == epoch_)
                complete_prefill_batch(s);
        });
    }
}

void
Instance::complete_prefill_batch(std::size_t slot)
{
    PrefillBatch batch = std::move(slots_[slot]);
    slot_busy_[slot] = false;
    ++prefill_passes_;
    if (callbacks.on_prefill_observation) {
        callbacks.on_prefill_observation(
            static_cast<double>(batch.total_tokens),
            batch.expected_end - batch.started);
    }
    for (Request *r : batch.requests)
        finish_prefill_of(r);
    if (callbacks.on_step)
        callbacks.on_step();
    pump();
}

// ---------------------------------------------------------------------
// stream-based disaggregation (assist prefills on the decode instance)
// ---------------------------------------------------------------------

void
Instance::try_start_sbd_stream()
{
    if (sbd_active_ || assist_q_.empty())
        return;
    sim::SourceScope src(sim_, src_sbd_);
    std::vector<Request *> batch;
    const std::size_t tokens = admit_assists(batch, cfg_.max_prefill_tokens);
    if (batch.empty())
        return;
    double dur = sampler_.sbd_prefill(static_cast<double>(tokens));
    dur *= slowdown_;
    if (trace_) {
        trace_->instant(
            sim_.now(), obs::Category::Scheduler, cfg_.name,
            "local-scheduler", "stream-split",
            {obs::num_arg("requests", std::uint64_t(batch.size())),
             obs::num_arg("tokens", std::uint64_t(tokens))});
        trace_->span(obs::Category::Gpu, cfg_.name, "sbd-stream",
                     "sbd-prefill", sim_.now(), dur,
                     {obs::num_arg("tokens", std::uint64_t(tokens))});
    }
    if (prefill_tokens_hist_)
        prefill_tokens_hist_->observe(static_cast<double>(tokens));
    sbd_batch_ = std::move(batch);
    sbd_tokens_ = tokens;
    sbd_active_ = true;
    sim_.schedule(dur, [this, e = epoch_] {
        if (e == epoch_)
            complete_sbd_stream();
    });
}

void
Instance::complete_sbd_stream()
{
    std::vector<Request *> batch = std::move(sbd_batch_);
    sbd_batch_.clear();
    sbd_active_ = false;
    sbd_tokens_ = 0;
    ++prefill_passes_;
    for (Request *r : batch)
        finish_prefill_of(r);
    if (callbacks.on_step)
        callbacks.on_step();
    pump();
}

std::size_t
Instance::admit_assists(std::vector<Request *> &batch, std::size_t token_cap)
{
    std::size_t tokens = 0;
    while (!assist_q_.empty() && tokens < token_cap) {
        Request *r = assist_q_.front();
        if (!blocks_.can_allocate(r->prompt_tokens)) {
            // The coordinator's slot check raced with decode growth:
            // hand the job back to the global scheduler.
            assist_q_.pop_front();
            if (callbacks.on_assist_bounce)
                callbacks.on_assist_bounce(r);
            continue;
        }
        blocks_.allocate(r->id, r->prompt_tokens);
        assist_q_.pop_front();
        if (r->prefill_start_time == workload::kNoTime)
            r->prefill_start_time = sim_.now();
        audit::transition(audit_, *r, RequestState::Prefilling);
        batch.push_back(r);
        tokens += r->prompt_tokens;
    }
    return tokens;
}

// ---------------------------------------------------------------------
// decode groups (continuous batching)
// ---------------------------------------------------------------------

void
Instance::try_start_group(std::size_t g)
{
    DecodeGroup &grp = groups_[g];
    if (grp.busy)
        return;
    sim::SourceScope src(sim_, src_decode_);

    std::size_t batch = grp.size();
    std::size_t sum_l = grp.sum_context();

    // Chunked-prefill work available for this pass? A partially-chunked
    // head must be finished via chunking even if chunk mode has since
    // deactivated (e.g. all migrated decodes drained mid-prompt).
    std::size_t chunk_tokens = 0;
    if (chunk_mode_active() || chunk_head_[g] != nullptr) {
        if (chunk_head_[g] == nullptr && !prefill_q_.empty()) {
            Request *cand = prefill_q_.front();
            if (blocks_.can_allocate(cand->prompt_tokens)) {
                blocks_.allocate(cand->id, cand->prompt_tokens);
                prefill_q_.pop_front();
                if (cand->prefill_start_time == workload::kNoTime)
                    cand->prefill_start_time = sim_.now();
                audit::transition(audit_, *cand, RequestState::Prefilling);
                cand->was_chunked = true;
                chunk_head_[g] = cand;
                if (trace_) {
                    trace_->instant(
                        sim_.now(), obs::Category::Scheduler, cfg_.name,
                        "local-scheduler", "chunk-admit",
                        {obs::num_arg("req", std::uint64_t(cand->id)),
                         obs::num_arg("tokens",
                                      std::uint64_t(cand->prompt_tokens))});
                }
            }
        }
        if (chunk_head_[g] != nullptr) {
            chunk_tokens = std::min(
                cfg_.chunk_size,
                chunk_head_[g]->prompt_tokens - chunk_head_[g]->prefilled);
        }
    }

    // Hybrid assist prefills (WindServe-no-split: one stream, one pass).
    std::vector<Request *> hybrid;
    std::size_t hybrid_tokens = 0;
    if (cfg_.role == InstanceRole::Decode &&
        !cfg_.stream_based_disaggregation)
        hybrid_tokens = admit_assists(hybrid);

    if (batch == 0 && chunk_tokens == 0 && hybrid.empty())
        return;

    double dur;
    const char *mode;
    if (!hybrid.empty()) {
        mode = "hybrid";
        dur = sampler_.hybrid(static_cast<double>(hybrid_tokens),
                              static_cast<double>(batch),
                              static_cast<double>(sum_l));
        hybrid_assists_[g] = std::move(hybrid);
    } else if (chunk_tokens > 0) {
        mode = "chunked";
        dur = sampler_.chunked(
            static_cast<double>(chunk_tokens),
            static_cast<double>(chunk_head_[g]->prefilled),
            static_cast<double>(batch), static_cast<double>(sum_l));
        group_chunk_[g] = chunk_tokens;
    } else if (sbd_active_) {
        mode = "sbd-decode";
        dur = sampler_.sbd_decode(static_cast<double>(batch),
                                  static_cast<double>(sum_l));
    } else {
        mode = "decode";
        dur = sampler_.decode(static_cast<double>(batch),
                              static_cast<double>(sum_l));
    }
    dur *= slowdown_;

    for (Request *r : grp.members) {
        if (r->decode_start_time == workload::kNoTime)
            r->decode_start_time = sim_.now();
        // A migrating member keeps its Migrating state: the swap-victim
        // and exhaustion guards key off it, and clobbering it here would
        // let the request be swapped out mid-migration (double-owned).
        if (r->state != RequestState::Migrating)
            audit::transition(audit_, *r, RequestState::Decoding);
    }
    if (trace_) {
        trace_->span(obs::Category::Gpu, cfg_.name,
                     "group" + std::to_string(g), mode, sim_.now(), dur,
                     {obs::num_arg("batch", std::uint64_t(batch)),
                      obs::num_arg("sum_context", std::uint64_t(sum_l)),
                      obs::num_arg("chunk_tokens",
                                   std::uint64_t(chunk_tokens)),
                      obs::num_arg("assist_tokens",
                                   std::uint64_t(hybrid_tokens))});
    }
    if (decode_batch_hist_ && batch > 0)
        decode_batch_hist_->observe(static_cast<double>(batch));
    grp.busy = true;
    grp.iteration_end = sim_.now() + dur;
    grp.iteration_members = grp.members;
    grp.iteration_handles = grp.handles;
    sim_.schedule(dur, [this, g, e = epoch_] {
        if (e == epoch_)
            complete_group(g);
    });
}

void
Instance::complete_group(std::size_t g)
{
    DecodeGroup &grp = groups_[g];
    grp.busy = false;
    if (!grp.members.empty())
        ++decode_iters_;

    // Chunk bookkeeping.
    if (std::size_t c = group_chunk_[g]) {
        group_chunk_[g] = 0;
        Request *r = chunk_head_[g];
        assert(r != nullptr);
        r->prefilled += c;
        if (r->prefilled >= r->prompt_tokens) {
            chunk_head_[g] = nullptr;
            finish_prefill_of(r);
        }
    }

    // Hybrid assist prefills complete with the pass.
    if (!hybrid_assists_[g].empty()) {
        std::vector<Request *> done = std::move(hybrid_assists_[g]);
        hybrid_assists_[g].clear();
        for (Request *r : done) {
            r->prefilled = r->prompt_tokens;
            finish_prefill_of(r);
        }
    }

    // Token generation for every request that PARTICIPATED in this pass
    // (the snapshot taken at pass start — a request admitted into the
    // group mid-pass computed nothing and earns nothing) and is still
    // resident in the group. An earlier member's block exhaustion may
    // have swapped a later member out DURING this loop; a swapped-out
    // member's pass result is discarded with its KV, so it must not
    // receive the token (and certainly must not "finish" while sitting
    // in the waiting queue). The snapshot is swapped out of the group
    // for the walk: a pass restarted from a callback in this loop
    // snapshots into the group's vectors, not the ones walked here.
    pass_members_.swap(grp.iteration_members);
    pass_handles_.swap(grp.iteration_handles);
    for (std::size_t i = 0; i < pass_members_.size(); ++i) {
        Request *r = pass_members_[i];
        if (!grp.contains(r))
            continue;
        // Reentrancy guard: a finish callback earlier in this loop may
        // pump the instance and re-admit a just-parked snapshot member
        // into this group. It is WaitingDecode again and computed
        // nothing this pass; only members still in a computing state
        // (Decoding, or Migrating under stall-free migration) earn the
        // token.
        if (r->state != RequestState::Decoding &&
            r->state != RequestState::Migrating)
            continue;
        ++r->generated;
        r->note_token(sim_.now());
        if (r->generated >= r->output_tokens) {
            finish_request(r);
        } else if (!blocks_.grow(pass_handles_[i], r->id,
                                 r->context_length())) {
            handle_block_exhaustion(r, g);
        }
    }
    pass_members_.clear();
    pass_handles_.clear();

    if (callbacks.on_step)
        callbacks.on_step();
    pump();
}

// ---------------------------------------------------------------------
// lifecycle helpers
// ---------------------------------------------------------------------

void
Instance::finish_prefill_of(Request *r)
{
    r->prefilled = r->prompt_tokens;
    r->generated = std::max<std::size_t>(r->generated, 1);
    if (r->first_token_time == workload::kNoTime)
        r->first_token_time = sim_.now();
    r->note_token(sim_.now());
    if (callbacks.on_prefill_complete)
        callbacks.on_prefill_complete(r);
}

void
Instance::finish_request(Request *r)
{
    r->finish_time = sim_.now();
    audit::transition(audit_, *r, RequestState::Finished);
    for (auto &grp : groups_)
        grp.remove(r);
    blocks_.release(r->id);
    swap_ready_.erase(r->id);
    if (callbacks.on_finished)
        callbacks.on_finished(r);
}

void
Instance::handle_block_exhaustion(Request *r, std::size_t g)
{
    while (!blocks_.grow(r->id, r->context_length())) {
        if (r->state == RequestState::Migrating) {
            // A migrating request must never be swapped (its KV is mid-
            // copy; the migration manager owns its fate). Un-earn the
            // token whose KV could not be stored and pause decoding;
            // the in-flight migration resumes it on the target.
            --r->generated;
            pause_decoding(r);
            return;
        }
        if (cfg_.swap_enabled) {
            // Victims come from this group or idle groups; busy groups
            // are mid-pass and cannot lose members. Candidates are
            // rebuilt every round: swap_out() removes the victim from
            // the live groups, and a stale snapshot would offer the
            // same victim twice.
            std::vector<DecodeGroup> candidates;
            candidates.push_back(groups_[g]);
            for (std::size_t i = 0; i < groups_.size(); ++i)
                if (i != g && !groups_[i].busy)
                    candidates.push_back(groups_[i]);
            Request *victim = select_swap_victim(candidates, r);
            if (victim == nullptr)
                victim = r;
            if (swap_out(victim)) {
                if (victim == r)
                    return;
                continue;
            }
            // Host pool full: swapping cannot free blocks, fall through.
        }
        // No swap path (disabled, or the host pool is full). Un-earn
        // the token whose KV could not be stored and preempt: release
        // this request's OWN blocks so the remaining members can make
        // progress — keeping them could deadlock the instance when
        // every holder is parked — and requeue at the front for
        // re-admission once capacity frees up (recompute-style
        // preemption; the recompute pass itself is not modeled by the
        // cost layer). Each retry costs at least one decode pass of
        // simulated time, so the loop cannot spin at one instant.
        --r->generated;
        audit::transition(audit_, *r, RequestState::WaitingDecode);
        for (auto &grp : groups_)
            grp.remove(r);
        blocks_.release(r->id);
        decode_q_.push_front(r);
        return;
    }
}

bool
Instance::swap_out(Request *victim)
{
    std::size_t ctx = victim->context_length();
    // Reserve host-pool space FIRST: if the pool is full nothing may
    // change, or a later swap_in would be asked for bytes the pool
    // never accepted.
    if (!swap_.swap_out(victim->id, ctx))
        return false;
    if (trace_)
        trace_->counter_at(sim_.now(), cfg_.name, "swap_pool_bytes",
                           swap_.used_bytes());
    WS_LOG_AT(Debug, cfg_.name, sim_.now())
        << "swap out req " << victim->id << " ctx " << ctx;
    if (trace_) {
        trace_->instant(sim_.now(), obs::Category::Scheduler, cfg_.name,
                        "local-scheduler", "swap-out",
                        {obs::num_arg("req", std::uint64_t(victim->id)),
                         obs::num_arg("ctx", std::uint64_t(ctx))});
    }
    blocks_.release(victim->id);
    ++victim->swap_outs;
    audit::transition(audit_, *victim, RequestState::SwappedOut);
    for (auto &grp : groups_)
        grp.remove(victim);
    decode_q_.push_front(victim);
    kvcache::ReqId id = victim->id;
    host_channel_.submit(swap_.bytes_for(ctx), [this, id, e = epoch_] {
        if (e != epoch_)
            return;
        swap_ready_.insert(id);
        pump();
    });
    return true;
}

void
Instance::try_swap_in()
{
    // FCFS among swapped requests: resume the first one in the queue.
    // It need not be the queue front — block holders and parked
    // requests ahead of it are admit_decodes' business.
    Request *r = nullptr;
    for (Request *cand : decode_q_) {
        if (cand->state == RequestState::SwappedOut) {
            r = cand;
            break;
        }
    }
    if (r == nullptr)
        return;
    if (!swap_ready_.count(r->id) || swapping_in_.count(r->id))
        return; // copy-out still in flight (or already inbound)
    std::size_t ctx = r->context_length();
    if (!blocks_.can_allocate(ctx + cfg_.block_size))
        return; // not enough headroom yet
    blocks_.allocate(r->id, ctx);
    swapping_in_.insert(r->id);
    host_channel_.submit(swap_.bytes_for(ctx), [this, r, ctx, e = epoch_] {
        if (e != epoch_)
            return;
        swap_.swap_in(r->id);
        if (trace_)
            trace_->counter_at(sim_.now(), cfg_.name, "swap_pool_bytes",
                               swap_.used_bytes());
        swapping_in_.erase(r->id);
        swap_ready_.erase(r->id);
        audit::transition(audit_, *r, RequestState::WaitingDecode);
        if (trace_) {
            trace_->instant(sim_.now(), obs::Category::Scheduler, cfg_.name,
                            "local-scheduler", "swap-in",
                            {obs::num_arg("req", std::uint64_t(r->id)),
                             obs::num_arg("ctx", std::uint64_t(ctx))});
        }
        pump();
    });
}

// ---------------------------------------------------------------------
// migration support
// ---------------------------------------------------------------------

void
Instance::pause_decoding(Request *r)
{
    for (auto &grp : groups_)
        grp.remove(r);
}

void
Instance::release_kv(Request *r)
{
    blocks_.release(r->id);
    pump();
}

bool
Instance::is_decoding(const Request *r) const
{
    for (const auto &grp : groups_)
        if (grp.contains(r))
            return true;
    return false;
}

// ---------------------------------------------------------------------
// fault injection
// ---------------------------------------------------------------------

std::vector<Request *>
Instance::crash()
{
    down_ = true;
    ++epoch_; // in-flight completions are now stale and no-op

    // Victims: everything queued or running HERE. Group members cover
    // the iteration snapshot (a snapshotted request that already left
    // the group is finished or parked in decode_q_). The injector sorts
    // and dedupes, so collection order is irrelevant.
    std::vector<Request *> victims;
    victims.insert(victims.end(), prefill_q_.begin(), prefill_q_.end());
    victims.insert(victims.end(), assist_q_.begin(), assist_q_.end());
    victims.insert(victims.end(), decode_q_.begin(), decode_q_.end());
    for (Request *r : chunk_head_)
        if (r != nullptr)
            victims.push_back(r);
    for (std::size_t s = 0; s < slots_.size(); ++s)
        if (slot_busy_[s])
            victims.insert(victims.end(), slots_[s].requests.begin(),
                           slots_[s].requests.end());
    victims.insert(victims.end(), sbd_batch_.begin(), sbd_batch_.end());
    for (const auto &grp : groups_)
        victims.insert(victims.end(), grp.members.begin(),
                       grp.members.end());
    for (const auto &assists : hybrid_assists_)
        victims.insert(victims.end(), assists.begin(), assists.end());

    // All on-GPU KV is gone — including blocks held for requests that
    // are not scheduled here (a foreign BackupManager's copies).
    for (kvcache::ReqId id : blocks_.holders())
        blocks_.release(id);
    // The host copy of a preempted request is useless once its
    // scheduling state is lost (recovery restarts it); drop it so the
    // pool ledger stays clean.
    for (kvcache::ReqId id : swap_.holders()) {
        swap_.drop(id);
        if (trace_)
            trace_->counter_at(sim_.now(), cfg_.name, "swap_pool_bytes",
                               swap_.used_bytes());
    }

    prefill_q_.clear();
    assist_q_.clear();
    decode_q_.clear();
    std::fill(chunk_head_.begin(), chunk_head_.end(), nullptr);
    for (std::size_t s = 0; s < slots_.size(); ++s)
        slots_[s] = PrefillBatch{};
    slot_busy_.assign(slot_busy_.size(), false);
    sbd_batch_.clear();
    sbd_active_ = false;
    sbd_tokens_ = 0;
    for (auto &grp : groups_)
        grp.clear();
    for (auto &assists : hybrid_assists_)
        assists.clear();
    std::fill(group_chunk_.begin(), group_chunk_.end(), 0);
    swap_ready_.clear();
    swapping_in_.clear();

    WS_LOG_AT(Info, cfg_.name, sim_.now())
        << "crash: " << victims.size() << " victims evicted";
    refresh_utilization();
    return victims;
}

void
Instance::repair()
{
    down_ = false;
    WS_LOG_AT(Info, cfg_.name, sim_.now()) << "repaired";
    pump();
}

// ---------------------------------------------------------------------
// introspection
// ---------------------------------------------------------------------

std::size_t
Instance::waiting_prefill_tokens() const
{
    std::size_t sum = 0;
    for (const Request *r : prefill_q_)
        sum += r->prompt_tokens;
    for (const Request *head : chunk_head_)
        if (head != nullptr)
            sum += head->prompt_tokens - head->prefilled;
    return sum;
}

double
Instance::inflight_prefill_remaining() const
{
    double rem = 0.0;
    for (std::size_t s = 0; s < slots_.size(); ++s)
        if (slot_busy_[s])
            rem += std::max(0.0, slots_[s].expected_end - sim_.now());
    return rem;
}

std::size_t
Instance::assist_tokens_pending() const
{
    std::size_t sum = sbd_active_ ? sbd_tokens_ : 0;
    for (const Request *r : assist_q_)
        sum += r->prompt_tokens;
    return sum;
}

std::size_t
Instance::running_decode_requests() const
{
    std::size_t n = 0;
    for (const auto &grp : groups_)
        n += grp.size();
    return n;
}

void
Instance::refresh_utilization()
{
    const model::CostModel &cm = sampler_.cost();
    double compute = 0.0, bw = 0.0;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (slot_busy_[s]) {
            compute += cm.prefill_compute_utilization(
                static_cast<double>(slots_[s].total_tokens));
        }
    }
    if (sbd_active_) {
        compute += cm.prefill_compute_utilization(
            static_cast<double>(sbd_tokens_));
    }
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        const DecodeGroup &grp = groups_[g];
        if (!grp.busy)
            continue;
        bw += cm.decode_bandwidth_utilization(
            static_cast<double>(grp.size()),
            static_cast<double>(grp.sum_context()));
        if (group_chunk_[g] != 0) {
            compute += cm.prefill_compute_utilization(
                static_cast<double>(group_chunk_[g]));
        }
    }
    compute_util_.set_level(sim_.now(), std::min(1.0, compute));
    bw_util_.set_level(sim_.now(), std::min(1.0, bw));
}

double
Instance::mean_compute_utilization()
{
    compute_util_.finalize(sim_.now());
    return compute_util_.mean_utilization();
}

double
Instance::mean_bandwidth_utilization()
{
    bw_util_.finalize(sim_.now());
    return bw_util_.mean_utilization();
}

} // namespace windserve::engine
