/**
 * @file
 * Regression tests for scheduling/ownership bugs found while driving
 * the full benchmark suite. Each test reconstructs the minimal
 * interaction that used to corrupt state.
 */
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "audit/sim_auditor.hpp"
#include "baselines/baseline_system.hpp"
#include "core/windserve_system.hpp"
#include "harness/experiment.hpp"
#include "harness/fuzz.hpp"
#include "hw/gpu_spec.hpp"
#include "transfer/migration.hpp"

namespace eng = windserve::engine;
namespace md = windserve::model;
namespace hw = windserve::hw;
namespace sim = windserve::sim;
namespace wl = windserve::workload;
namespace tr = windserve::transfer;
namespace hs = windserve::harness;
namespace core = windserve::core;
namespace bl = windserve::baselines;

namespace {

wl::Request
decode_req(wl::RequestId id, std::size_t prompt, std::size_t output,
           double arrival = 0.0)
{
    wl::Request r;
    r.id = id;
    r.prompt_tokens = prompt;
    r.output_tokens = output;
    r.arrival_time = arrival;
    r.generated = 1;
    r.first_token_time = 0.0;
    return r;
}

/** The what() of the std::invalid_argument @p f throws, or a marker
 *  that fails every substring check when it throws nothing. */
template <typename F>
std::string
invalid_argument_of(F &&f)
{
    try {
        f();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "<no std::invalid_argument>";
}

/** Builds each of the three systems with @p edit applied to its
 *  instance-level knobs and expects construction to throw, naming the
 *  first instance and @p field. */
template <typename Edit>
void
expect_all_systems_reject(const std::string &field, Edit edit)
{
    core::WindServeConfig ws;
    edit(ws);
    std::string what =
        invalid_argument_of([&] { core::WindServeSystem sys(ws); });
    EXPECT_NE(what.find("'prefill'"), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;

    bl::DistServeConfig ds;
    edit(ds);
    what = invalid_argument_of([&] { bl::BaselineSystem sys(ds); });
    EXPECT_NE(what.find("'distserve/prefill'"), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;

    bl::VllmConfig vc;
    edit(vc);
    what = invalid_argument_of([&] { bl::BaselineSystem sys(vc); });
    EXPECT_NE(what.find("'vllm/engine0'"), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
}

} // namespace

// Bug 1 (stale clock): Simulator::now() used to lag one event behind
// inside callbacks, producing out-of-order event execution.
// Covered in depth by test_simulator.cpp; this is the e2e canary.
TEST(Regression, EventOrderUnderRecursiveScheduling)
{
    sim::Simulator s;
    double last = -1.0;
    int fired = 0;
    std::function<void()> tick = [&] {
        ASSERT_GE(s.now(), last);
        last = s.now();
        if (++fired < 2000)
            s.schedule(0.0005 * ((fired % 13) + 1), tick);
    };
    s.schedule(0.0, tick);
    s.run();
    EXPECT_GE(fired, 2000);
}

// Bug 2 (zombie swap member): a decode-group member swapped out by an
// EARLIER member's block exhaustion during the same pass used to still
// receive that pass's token from the stale member snapshot — it could
// even "finish" while sitting in the waiting queue as swapped-out, get
// admitted again, and be swapped a second time (SwapPool threw).
TEST(Regression, MemberSwappedMidPassGetsNoToken)
{
    sim::Simulator s;
    md::CostModel cost(md::ModelSpec::opt_13b(), hw::GpuSpec::a800_80g(),
                       {2, 1});
    eng::InstanceConfig cfg;
    cfg.role = eng::InstanceRole::Decode;
    cfg.exec_noise_sigma = 0.0;
    // Room for both prompts, but not much growth: exhaustion soon.
    cfg.kv_capacity_tokens_override = 448;
    eng::Instance inst(s, cfg, cost, sim::Rng(1),
                       {hw::LinkType::HostPCIe, 20e9, 1e-6});
    // b has output 2: ONE pass from finishing. When a's growth swaps b
    // out mid-pass, b must NOT receive the token (and must not finish
    // in the queue).
    // a's final context (208+199=407) fits capacity; b is one pass
    // from finishing when the exhaustion hits.
    auto a = decode_req(1, 208, 200, 0.0);
    auto b = decode_req(2, 208, 2, 1.0); // later arrival -> swap victim
    int finished = 0;
    inst.callbacks.on_finished = [&](wl::Request *) { ++finished; };
    s.schedule(0.0, [&] {
        inst.enqueue_decode(&a, false);
        inst.enqueue_decode(&b, false);
    });
    s.run_until(600.0);
    EXPECT_EQ(finished, 2);
    EXPECT_TRUE(a.finished());
    EXPECT_TRUE(b.finished());
    EXPECT_EQ(a.generated, 200u);
    EXPECT_EQ(b.generated, 2u);
    EXPECT_EQ(inst.blocks().used_blocks(), 0u);
}

// Bug 3 (clobbered Migrating state): iteration start used to stamp
// every member Decoding, erasing the Migrating state — the request
// could then be chosen as a swap victim mid-migration and end up
// owned by both instances.
TEST(Regression, MigratingStateSurvivesIterations)
{
    sim::Simulator s;
    md::CostModel cost(md::ModelSpec::opt_13b(), hw::GpuSpec::a800_80g(),
                       {2, 1});
    eng::InstanceConfig dc;
    dc.role = eng::InstanceRole::Decode;
    dc.exec_noise_sigma = 0.0;
    eng::Instance decode(s, dc, cost, sim::Rng(1),
                         {hw::LinkType::HostPCIe, 20e9, 1e-6});
    eng::InstanceConfig pc;
    pc.role = eng::InstanceRole::Prefill;
    pc.chunked_prefill = true;
    pc.exec_noise_sigma = 0.0;
    eng::Instance prefill(s, pc, cost, sim::Rng(2),
                          {hw::LinkType::HostPCIe, 20e9, 1e-6});
    tr::KvTransferManager xfer(s, {hw::LinkType::PCIeSwitch, 2e9, 1e-5},
                               md::ModelSpec::opt_13b(), {});
    windserve::kvcache::BackupRegistry reg;
    tr::MigrationManager mig(s, xfer, decode, prefill, reg);
    decode.callbacks.on_step = [&] { mig.on_source_step(); };
    mig.on_migrated = [&](wl::Request *r) {
        prefill.enqueue_decode(r, true);
    };
    auto r = decode_req(1, 1200, 500);
    s.schedule(0.0, [&] { decode.enqueue_decode(&r, false); });
    s.schedule(0.1, [&] { ASSERT_TRUE(mig.start(&r)); });
    // Sample the state while it keeps decoding mid-migration.
    s.schedule(0.3, [&] {
        EXPECT_EQ(r.state, wl::RequestState::Migrating);
        EXPECT_TRUE(decode.is_decoding(&r));
    });
    s.run_until(300.0);
    EXPECT_TRUE(r.finished());
    EXPECT_EQ(r.migrations, 1u);
    EXPECT_FALSE(decode.blocks().holds(1));
    EXPECT_FALSE(prefill.blocks().holds(1));
}

// Bug 4 (migrating request swapped on exhaustion): when the migrating
// request ITSELF hit block exhaustion with no other victims, it used to
// be swapped out mid-migration. Now it pauses locally and resumes at
// the target with consistent token accounting.
TEST(Regression, MigratingRequestPausesInsteadOfSwapping)
{
    sim::Simulator s;
    md::CostModel cost(md::ModelSpec::opt_13b(), hw::GpuSpec::a800_80g(),
                       {2, 1});
    eng::InstanceConfig dc;
    dc.role = eng::InstanceRole::Decode;
    dc.exec_noise_sigma = 0.0;
    dc.kv_capacity_tokens_override = 1216; // prompt 1200 + 1 block spare
    eng::Instance decode(s, dc, cost, sim::Rng(1),
                         {hw::LinkType::HostPCIe, 20e9, 1e-6});
    eng::InstanceConfig pc;
    pc.role = eng::InstanceRole::Prefill;
    pc.chunked_prefill = true;
    pc.exec_noise_sigma = 0.0;
    eng::Instance prefill(s, pc, cost, sim::Rng(2),
                          {hw::LinkType::HostPCIe, 20e9, 1e-6});
    tr::KvTransferManager xfer(s, {hw::LinkType::PCIeSwitch, 1e9, 1e-5},
                               md::ModelSpec::opt_13b(), {});
    windserve::kvcache::BackupRegistry reg;
    tr::MigrationManager mig(s, xfer, decode, prefill, reg);
    decode.callbacks.on_step = [&] { mig.on_source_step(); };
    mig.on_migrated = [&](wl::Request *r) {
        prefill.enqueue_decode(r, true);
    };
    auto r = decode_req(1, 1200, 200);
    s.schedule(0.0, [&] { decode.enqueue_decode(&r, false); });
    s.schedule(0.05, [&] { ASSERT_TRUE(mig.start(&r)); });
    s.run_until(300.0);
    EXPECT_TRUE(r.finished());
    EXPECT_EQ(r.generated, 200u);
    EXPECT_EQ(r.swap_outs, 0u); // never swapped
    EXPECT_EQ(r.migrations, 1u);
    EXPECT_EQ(decode.swap_out_events(), 0u);
}

// Bug 5 (orphaned chunk head): covered by
// InstanceChunked.OrphanedChunkHeadStillFinishes in test_instance.cpp.
// Here: the PP-2 variant with per-group chunk pipelining.
TEST(Regression, ChunkedPrefillPipelinesAcrossGroups)
{
    sim::Simulator s;
    md::CostModel cost(md::ModelSpec::opt_13b(), hw::GpuSpec::a800_80g(),
                       {2, 2});
    eng::InstanceConfig cfg;
    cfg.role = eng::InstanceRole::Colocated;
    cfg.chunked_prefill = true;
    cfg.chunk_size = 256;
    cfg.exec_noise_sigma = 0.0;
    eng::Instance inst(s, cfg, cost, sim::Rng(1),
                       {hw::LinkType::HostPCIe, 20e9, 1e-6});
    std::vector<wl::Request *> done;
    inst.callbacks.on_prefill_complete = [&](wl::Request *r) {
        done.push_back(r);
        inst.enqueue_decode(r, true);
    };
    int finished = 0;
    inst.callbacks.on_finished = [&](wl::Request *) { ++finished; };
    auto a = decode_req(1, 1024, 5);
    a.generated = 0;
    a.first_token_time = wl::kNoTime;
    auto b = decode_req(2, 1024, 5);
    b.generated = 0;
    b.first_token_time = wl::kNoTime;
    s.schedule(0.0, [&] {
        inst.enqueue_prefill(&a);
        inst.enqueue_prefill(&b);
    });
    s.run_until(120.0);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(finished, 2);
    // With two pipeline groups, b's chunks interleave with a's rather
    // than waiting for a to fully finish: b's prefill must complete
    // well before 2x a's span.
    EXPECT_LT(b.first_token_time, 1.9 * a.first_token_time);
}

// Bug 6 (leaked source KV after migration): MigrationManager must
// always release the source allocation on finalize — checked across a
// saturated end-to-end run with many migrations.
TEST(Regression, MigrationsNeverLeakSourceBlocks)
{
    hs::ExperimentConfig ec;
    ec.scenario = hs::Scenario::opt13b_sharegpt_small_decode();
    ec.system = hs::SystemKind::WindServe;
    ec.per_gpu_rate = 2.0;
    ec.num_requests = 600;
    ec.horizon = 36000.0;
    auto sys = hs::make_system(ec);
    auto trace = hs::make_trace(ec);
    auto rr = sys->run(trace, ec.scenario.slo, ec.horizon);
    auto *ws = dynamic_cast<windserve::core::WindServeSystem *>(sys.get());
    ASSERT_NE(ws, nullptr);
    for (const auto &r : rr.requests)
        ASSERT_TRUE(r.finished());
    EXPECT_GT(ws->pod(0).migration().completed(), 0u);
    EXPECT_EQ(ws->decode(0).blocks().used_blocks(), 0u);
    EXPECT_EQ(ws->prefill(0).blocks().used_blocks(), 0u);
}

// Bug 7 (pool-full swap corrupted accounting): Instance::swap_out used
// to ignore SwapPool::swap_out()'s rejection — the victim's GPU blocks
// were already released, its state set SwappedOut and the host DMA
// submitted, so the later swap-in threw (the KV was never in the
// pool). Found by the invariant auditor (swap-in-unknown). Now the
// pool accepts FIRST; on rejection the grower parks in the decode
// queue keeping its blocks and retries after the next pass.
TEST(Regression, SwapPoolFullParksInsteadOfCorruptingAccounting)
{
    hs::ExperimentConfig ec;
    ec.scenario = hs::Scenario::opt13b_sharegpt();
    ec.system = hs::SystemKind::Vllm;
    ec.per_gpu_rate = 2.0;
    ec.num_requests = 80;
    ec.seed = 33;
    ec.horizon = 36000.0;
    ec.kv_capacity_tokens_override = 2560; // heavy KV pressure
    ec.audit = true;                       // the invariant net itself

    // Control: same pressure with a real host pool swaps.
    auto with_pool = hs::run_experiment(ec);
    EXPECT_GT(with_pool.decode_swap_outs, 0u);
    EXPECT_EQ(with_pool.audit_violations, 0u);
    EXPECT_EQ(with_pool.metrics.num_finished, 80u);

    // A pool too small for any request rejects every swap-out; the
    // old code crashed here, the parking path must drain the trace.
    ec.host_memory_bytes = 1e4;
    auto no_pool = hs::run_experiment(ec);
    EXPECT_EQ(no_pool.decode_swap_outs, 0u);
    EXPECT_EQ(no_pool.audit_violations, 0u);
    EXPECT_EQ(no_pool.metrics.num_finished, 80u);
}

// Bug 8 (inverted swap_enabled branch): block exhaustion used to swap
// exactly when swapping was DISABLED (and never when enabled). With
// swapping off, the same pressure must finish through parking alone.
TEST(Regression, SwapDisabledNeverSwaps)
{
    hs::ExperimentConfig ec;
    ec.scenario = hs::Scenario::opt13b_sharegpt();
    ec.system = hs::SystemKind::Vllm;
    ec.per_gpu_rate = 2.0;
    ec.num_requests = 80;
    ec.seed = 33;
    ec.horizon = 36000.0;
    ec.kv_capacity_tokens_override = 2560;
    ec.swap_enabled = false;
    ec.audit = true;
    auto r = hs::run_experiment(ec);
    EXPECT_EQ(r.decode_swap_outs, 0u);
    EXPECT_EQ(r.audit_violations, 0u);
    EXPECT_EQ(r.metrics.num_finished, 80u);
}

// Bug 9 (migration cancellation): a request that finishes at the
// source while its migration transfer is still draining must abort the
// migration cleanly — no target allocation, no double ownership, no
// residue in either block manager.
TEST(Regression, MigrationCancelledByFinishLeavesNoResidue)
{
    sim::Simulator s;
    windserve::audit::SimAuditor aud(s);
    md::CostModel cost(md::ModelSpec::opt_13b(), hw::GpuSpec::a800_80g(),
                       {2, 1});
    eng::InstanceConfig dc;
    dc.role = eng::InstanceRole::Decode;
    dc.exec_noise_sigma = 0.0;
    eng::Instance decode(s, dc, cost, sim::Rng(1),
                         {hw::LinkType::HostPCIe, 20e9, 1e-6});
    eng::InstanceConfig pc;
    pc.role = eng::InstanceRole::Prefill;
    pc.chunked_prefill = true;
    pc.exec_noise_sigma = 0.0;
    eng::Instance prefill(s, pc, cost, sim::Rng(2),
                          {hw::LinkType::HostPCIe, 20e9, 1e-6});
    // Slow reverse link: 1200 tokens of KV outlast a 5-token decode.
    tr::KvTransferManager xfer(s, {hw::LinkType::PCIeSwitch, 1e9, 1e-5},
                               md::ModelSpec::opt_13b(), {});
    windserve::kvcache::BackupRegistry reg;
    tr::MigrationManager mig(s, xfer, decode, prefill, reg);
    decode.attach({.audit = &aud});
    prefill.attach({.audit = &aud});
    mig.attach({.audit = &aud});
    decode.callbacks.on_step = [&] { mig.on_source_step(); };
    decode.callbacks.on_finished = [&](wl::Request *r) {
        mig.on_request_finished(r);
    };
    mig.on_migrated = [&](wl::Request *r) {
        prefill.enqueue_decode(r, true);
    };
    auto r = decode_req(1, 1200, 5);
    s.schedule(0.0, [&] { decode.enqueue_decode(&r, false); });
    s.schedule(0.05, [&] { ASSERT_TRUE(mig.start(&r)); });
    s.run_until(300.0);
    EXPECT_TRUE(r.finished());
    EXPECT_EQ(r.generated, 5u);
    EXPECT_EQ(r.migrations, 0u); // never completed a migration
    EXPECT_EQ(mig.completed(), 0u);
    EXPECT_EQ(mig.aborted(), 1u);
    EXPECT_EQ(mig.active(), 0u);
    EXPECT_FALSE(decode.blocks().holds(1));
    EXPECT_FALSE(prefill.blocks().holds(1));
    EXPECT_TRUE(aud.ok());
}

// Bug 10 (mid-pass admission earned a free token): continuous batching
// admits waiting requests into a decode group at any time, including
// while an iteration is in flight. The completion loop used to hand
// the pass's token to EVERY current member — so a request admitted
// mid-pass received a token it never computed, and could even finish
// straight out of the waiting queue (the auditor flags the
// WaitingDecode -> Finished edge). Only the pass-start snapshot may
// earn tokens.
TEST(Regression, MidPassAdmissionEarnsNoToken)
{
    sim::Simulator s;
    windserve::audit::SimAuditor aud(s);
    md::CostModel cost(md::ModelSpec::opt_13b(), hw::GpuSpec::a800_80g(),
                       {2, 1});
    eng::InstanceConfig cfg;
    cfg.role = eng::InstanceRole::Decode;
    cfg.exec_noise_sigma = 0.0;
    eng::Instance inst(s, cfg, cost, sim::Rng(1),
                       {hw::LinkType::HostPCIe, 20e9, 1e-6});
    inst.attach({.audit = &aud});
    auto a = decode_req(1, 512, 50, 0.0);
    auto b = decode_req(2, 512, 2, 0.0); // one token from finishing
    int steps = 0;
    inst.callbacks.on_step = [&] {
        if (++steps == 1) {
            // First pass just completed. b joined mid-pass: it must not
            // have earned that pass's token, let alone finished.
            EXPECT_EQ(b.generated, 1u);
            EXPECT_EQ(b.state, wl::RequestState::WaitingDecode);
        }
    };
    int finished = 0;
    inst.callbacks.on_finished = [&](wl::Request *) { ++finished; };
    s.schedule(0.0, [&] { inst.enqueue_decode(&a, false); });
    // 1 ms in: a's first iteration is in flight; b arrives and is
    // admitted into the busy group.
    s.schedule(0.001, [&] { inst.enqueue_decode(&b, false); });
    s.run_until(600.0);
    EXPECT_GE(steps, 2);
    EXPECT_EQ(finished, 2);
    EXPECT_EQ(a.generated, 50u);
    EXPECT_EQ(b.generated, 2u);
    EXPECT_TRUE(aud.ok());
    EXPECT_EQ(inst.blocks().used_blocks(), 0u);
}

// Bug 11: complete_group clears the group's busy flag before handing
// out tokens, and finish_request fires on_finished synchronously — the
// coordinator's callback could pump() reentrantly and re-admit a
// just-parked snapshot member into the completing group, where it
// earned a token it never computed (and could even "finish" straight
// out of WaitingDecode). Also covers the head-of-line deadlock where a
// swapped-out request that cannot fit blocked admission of block
// holders queued behind it. Both were found by the fuzz campaign;
// these seeds replay the exact failing cases.
TEST(Regression, FuzzReplaySeedsStayClean)
{
    for (std::uint64_t seed : {5ull, 25ull}) {
        auto r = hs::run_fuzz_case(seed, hs::SystemKind::WindServe);
        EXPECT_EQ(r.audit_violations, 0u) << "seed " << seed;
        EXPECT_GT(r.audit_events, 0u) << "seed " << seed;
        EXPECT_EQ(r.unfinished, 0u) << "seed " << seed;
    }
}

// The full Figure-12 configuration used to crash; run a compressed
// version end-to-end as a canary.
TEST(Regression, ImbalancedPlacementSweepRunsClean)
{
    for (double rate : {1.5, 3.0}) {
        hs::ExperimentConfig ec;
        ec.scenario = hs::Scenario::opt13b_sharegpt_small_decode();
        ec.system = hs::SystemKind::WindServe;
        ec.per_gpu_rate = rate;
        ec.num_requests = 800;
        ec.horizon = 36000.0;
        auto r = hs::run_experiment(ec);
        EXPECT_EQ(r.metrics.num_finished, 800u) << "rate " << rate;
    }
}

// Bug 12 (unchecked configs): out-of-range instance and run knobs used
// to be accepted. A zero block size divided by zero when sizing the KV
// pool (SIGFPE); a NaN execution noise ran to a silently wrong end
// time; a zero prefill token budget stranded requests that could never
// fit a pass; and a NaN, zero or negative horizon finished nothing.
// Each is now rejected up front with the instance and field named.
TEST(Regression, ZeroBlockSizeRejected)
{
    expect_all_systems_reject("block_size",
                              [](auto &c) { c.block_size = 0; });
}

TEST(Regression, NanExecNoiseRejected)
{
    expect_all_systems_reject("exec_noise_sigma", [](auto &c) {
        c.exec_noise_sigma = std::numeric_limits<double>::quiet_NaN();
    });
}

TEST(Regression, ZeroPrefillTokenBudgetRejected)
{
    expect_all_systems_reject("max_prefill_tokens",
                              [](auto &c) { c.max_prefill_tokens = 0; });
}

// A KV capacity below one block used to construct: every request then
// waited forever, and all three systems finished none of a trace at
// makespan 0 without an error.
TEST(Regression, KvCapacityBelowOneBlockRejected)
{
    expect_all_systems_reject(
        "KV capacity of 8 tokens holds no block of block_size 16",
        [](auto &c) { c.kv_capacity_tokens_override = 8; });
}

// vLLM with no engines used to construct, and run() then crashed on
// the empty engine table. Both baselines name their replica count.
TEST(Regression, ZeroVllmEnginesRejected)
{
    bl::VllmConfig vc;
    vc.num_engines = 0;
    std::string what =
        invalid_argument_of([&] { bl::BaselineSystem sys(vc); });
    EXPECT_NE(what.find("num_engines"), std::string::npos) << what;

    bl::DistServeConfig ds;
    ds.num_replicas = 0;
    what = invalid_argument_of([&] { bl::BaselineSystem sys(ds); });
    EXPECT_NE(what.find("num_replicas"), std::string::npos) << what;
}

TEST(Regression, NonPositiveHorizonRejected)
{
    wl::TraceConfig tc;
    tc.dataset = wl::DatasetConfig::sharegpt();
    tc.arrival.rate = 4.0;
    tc.num_requests = 20;
    auto trace = wl::TraceBuilder(tc).build();
    for (double h : {std::numeric_limits<double>::quiet_NaN(), 0.0, -1.0,
                     std::numeric_limits<double>::infinity()}) {
        core::WindServeSystem sys(core::WindServeConfig{});
        eng::RunOptions opts;
        opts.horizon = h;
        std::string what = invalid_argument_of([&] { sys.run(trace, opts); });
        EXPECT_NE(what.find("horizon"), std::string::npos)
            << "horizon " << h << ": " << what;
        // The rejected run leaves the system unattached and unrun: a
        // valid run afterwards completes the trace.
        opts.horizon = 7200.0;
        EXPECT_EQ(sys.run(trace, opts).metrics.num_finished, trace.size())
            << "horizon " << h;
    }
}

// Bug 13 (unsorted programmatic trace): each arrival schedules the next
// at its successor's time, which the simulator clamps to now(), so a
// trace that goes back in time would replay with silently moved
// arrivals. trace_io rejects such a CSV; run() now rejects such a
// vector up front, naming the system, the request and both times.
TEST(Regression, UnsortedTraceRejected)
{
    wl::TraceConfig tc;
    tc.dataset = wl::DatasetConfig::sharegpt();
    tc.arrival.rate = 4.0;
    tc.num_requests = 20;
    const auto sorted = wl::TraceBuilder(tc).build();
    auto unsorted = sorted;
    unsorted[7].arrival_time = sorted[6].arrival_time - 0.25;
    auto nan = sorted;
    nan[0].arrival_time = std::numeric_limits<double>::quiet_NaN();

    std::vector<std::unique_ptr<eng::ServingSystem>> systems;
    systems.push_back(
        std::make_unique<core::WindServeSystem>(core::WindServeConfig{}));
    systems.push_back(
        std::make_unique<bl::BaselineSystem>(bl::DistServeConfig{}));
    systems.push_back(std::make_unique<bl::BaselineSystem>(bl::VllmConfig{}));
    for (auto &sys : systems) {
        eng::RunOptions opts;
        opts.audit = windserve::audit::AuditConfig{};
        std::string what =
            invalid_argument_of([&] { sys->run(unsorted, opts); });
        for (const std::string &part :
             {sys->name(), std::string("request 7"),
              std::to_string(unsorted[7].arrival_time),
              std::string("request 6"),
              std::to_string(sorted[6].arrival_time)})
            EXPECT_NE(what.find(part), std::string::npos)
                << "missing '" << part << "' in: " << what;
        what = invalid_argument_of([&] { sys->run(nan, opts); });
        EXPECT_NE(what.find("request 0"), std::string::npos) << what;
        EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
        // Rejected before anything was attached: the sorted trace then
        // runs to completion with the auditor it asks for.
        EXPECT_EQ(sys->audit(), nullptr) << sys->name();
        EXPECT_EQ(sys->run(sorted, opts).metrics.num_finished, sorted.size())
            << sys->name();
        EXPECT_NE(sys->audit(), nullptr) << sys->name();
    }
}

// Bug 14 (second run): a replay stopped at the horizon leaves its
// pending arrival and in-flight passes in the queue, and a second run()
// fired them into the new run's requests (ASan: heap-buffer-overflow in
// Instance::enqueue_prefill, the leftover arrival indexing a shorter
// request vector). A system replays one trace: the second run() throws,
// naming the system, before it validates or attaches anything.
TEST(Regression, SecondRunRejected)
{
    wl::TraceConfig tc;
    tc.dataset = wl::DatasetConfig::sharegpt();
    tc.arrival.rate = 4.0;
    tc.num_requests = 40;
    const auto trace = wl::TraceBuilder(tc).build();
    tc.num_requests = 10;
    const auto second = wl::TraceBuilder(tc).build();

    bl::BaselineSystem sys(bl::DistServeConfig{});
    eng::RunOptions opts;
    opts.horizon = trace[20].arrival_time;
    auto first = sys.run(trace, opts);
    EXPECT_LT(first.metrics.num_finished, trace.size());

    // A bad horizon would be rejected too, but only after the check.
    opts.horizon = -1.0;
    opts.tracing = true;
    try {
        sys.run(second, opts);
        FAIL() << "second run() did not throw";
    } catch (const std::invalid_argument &e) {
        FAIL() << "validated before the second-run check: " << e.what();
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find(sys.name()), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(sys.trace(), nullptr);
}
