/**
 * @file
 * Unit tests for the serving Instance: continuous batching, pipeline
 * groups, chunked prefill, SBD streams, hybrid passes, and swapping.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "engine/instance.hpp"
#include "hw/gpu_spec.hpp"

namespace eng = windserve::engine;
namespace md = windserve::model;
namespace hw = windserve::hw;
namespace sim = windserve::sim;
namespace wl = windserve::workload;

namespace {

struct Fixture {
    sim::Simulator s;
    std::unique_ptr<eng::Instance> inst;
    std::vector<wl::Request *> prefilled;
    std::vector<wl::Request *> finished;
    std::vector<wl::Request *> bounced;

    explicit Fixture(eng::InstanceConfig cfg,
                     md::ParallelismConfig par = {2, 1},
                     std::size_t kv_override = 0)
    {
        cfg.exec_noise_sigma = 0.0;
        cfg.kv_capacity_tokens_override = kv_override;
        md::CostModel cost(md::ModelSpec::opt_13b(),
                           hw::GpuSpec::a800_80g(), par);
        inst = std::make_unique<eng::Instance>(
            s, cfg, cost, sim::Rng(1),
            hw::Link{hw::LinkType::HostPCIe, 20e9, 1e-6});
        inst->callbacks.on_prefill_complete = [this](wl::Request *r) {
            prefilled.push_back(r);
        };
        inst->callbacks.on_finished = [this](wl::Request *r) {
            finished.push_back(r);
        };
        inst->callbacks.on_assist_bounce = [this](wl::Request *r) {
            bounced.push_back(r);
        };
    }
};

wl::Request
make_req(wl::RequestId id, std::size_t prompt, std::size_t output,
         double arrival = 0.0)
{
    wl::Request r;
    r.id = id;
    r.prompt_tokens = prompt;
    r.output_tokens = output;
    r.arrival_time = arrival;
    return r;
}

eng::InstanceConfig
prefill_cfg()
{
    eng::InstanceConfig cfg;
    cfg.role = eng::InstanceRole::Prefill;
    return cfg;
}

eng::InstanceConfig
decode_cfg(bool sbd = false)
{
    eng::InstanceConfig cfg;
    cfg.role = eng::InstanceRole::Decode;
    cfg.stream_based_disaggregation = sbd;
    return cfg;
}

eng::InstanceConfig
colocated_cfg()
{
    eng::InstanceConfig cfg;
    cfg.role = eng::InstanceRole::Colocated;
    cfg.chunked_prefill = true;
    cfg.chunk_size = 256;
    return cfg;
}

} // namespace

TEST(InstancePrefill, SingleRequestCompletes)
{
    Fixture f(prefill_cfg());
    auto r = make_req(1, 512, 10);
    f.s.schedule(0.0, [&] { f.inst->enqueue_prefill(&r); });
    f.s.run();
    ASSERT_EQ(f.prefilled.size(), 1u);
    EXPECT_DOUBLE_EQ(r.first_token_time, f.s.now());
    EXPECT_GT(r.first_token_time, 0.0);
    EXPECT_EQ(r.generated, 1u);
    EXPECT_EQ(r.prefilled, 512u);
    // Prompt KV remains resident until the system releases it.
    EXPECT_TRUE(f.inst->blocks().holds(1));
    // Duration should match the cost model exactly (no noise).
    EXPECT_NEAR(r.first_token_time,
                f.inst->cost().prefill_time(512.0), 1e-9);
}

TEST(InstancePrefill, TimestampsRecorded)
{
    Fixture f(prefill_cfg());
    auto r = make_req(1, 512, 10);
    f.s.schedule(0.5, [&] { f.inst->enqueue_prefill(&r); });
    f.s.run();
    EXPECT_DOUBLE_EQ(r.prefill_enqueue_time, 0.5);
    EXPECT_DOUBLE_EQ(r.prefill_start_time, 0.5); // idle instance
    EXPECT_GT(r.first_token_time, 0.5);
}

TEST(InstancePrefill, BatchesQueuedRequestsTogether)
{
    Fixture f(prefill_cfg());
    auto a = make_req(1, 300, 10);
    auto b = make_req(2, 300, 10);
    // Enqueue both before the instance can start (same event).
    f.s.schedule(0.0, [&] {
        f.inst->enqueue_prefill(&a);
        f.inst->enqueue_prefill(&b);
    });
    f.s.run();
    ASSERT_EQ(f.prefilled.size(), 2u);
    // One pass: identical completion stamps.
    EXPECT_DOUBLE_EQ(a.first_token_time, b.first_token_time);
    EXPECT_EQ(f.inst->prefill_passes(), 1u);
}

TEST(InstancePrefill, FcfsOrderAcrossBatches)
{
    eng::InstanceConfig cfg = prefill_cfg();
    cfg.max_prefill_tokens = 512;
    Fixture f(cfg);
    auto a = make_req(1, 400, 10);
    auto b = make_req(2, 400, 10);
    f.s.schedule(0.0, [&] {
        f.inst->enqueue_prefill(&a);
        f.inst->enqueue_prefill(&b);
    });
    f.s.run();
    EXPECT_LT(a.first_token_time, b.first_token_time);
    EXPECT_EQ(f.inst->prefill_passes(), 2u);
}

TEST(InstancePrefill, QueueAccounting)
{
    Fixture f(prefill_cfg());
    auto a = make_req(1, 400, 10);
    auto b = make_req(2, 300, 10);
    f.s.schedule(0.0, [&] {
        f.inst->enqueue_prefill(&a);
        f.inst->enqueue_prefill(&b);
        // Pump is deferred: both requests still wait at this instant.
        EXPECT_EQ(f.inst->waiting_prefill_tokens(), 700u);
        EXPECT_DOUBLE_EQ(f.inst->inflight_prefill_remaining(), 0.0);
    });
    f.s.run();
    // They formed one batch.
    EXPECT_EQ(f.inst->prefill_passes(), 1u);
}

TEST(InstanceDecode, RequestRunsToCompletion)
{
    Fixture f(decode_cfg());
    auto r = make_req(1, 512, 11);
    r.generated = 1; // first token came from the prefill instance
    r.first_token_time = 0.0;
    f.s.schedule(0.0, [&] { f.inst->enqueue_decode(&r, false); });
    f.s.run();
    ASSERT_EQ(f.finished.size(), 1u);
    EXPECT_TRUE(r.finished());
    EXPECT_EQ(r.generated, 11u);
    // 10 decode iterations.
    EXPECT_EQ(f.inst->decode_iterations(), 10u);
    // KV released at completion.
    EXPECT_EQ(f.inst->blocks().used_blocks(), 0u);
    EXPECT_GT(r.finish_time, 0.0);
}

TEST(InstanceDecode, ContinuousBatchingJoinsMidFlight)
{
    Fixture f(decode_cfg());
    auto a = make_req(1, 512, 51);
    a.generated = 1;
    auto b = make_req(2, 512, 11);
    b.generated = 1;
    f.s.schedule(0.0, [&] { f.inst->enqueue_decode(&a, false); });
    f.s.schedule(0.05, [&] { f.inst->enqueue_decode(&b, false); });
    f.s.run();
    EXPECT_EQ(f.finished.size(), 2u);
    // b joined while a was running and finished first (fewer tokens).
    EXPECT_LT(b.finish_time, a.finish_time);
    EXPECT_GT(b.decode_start_time, 0.0);
}

TEST(InstanceDecode, KvGrowsWithGeneration)
{
    Fixture f(decode_cfg());
    auto r = make_req(1, 16, 40); // crosses block boundaries
    r.generated = 1;
    f.s.schedule(0.0, [&] { f.inst->enqueue_decode(&r, false); });
    std::size_t max_blocks = 0;
    f.inst->callbacks.on_step = [&] {
        max_blocks = std::max(max_blocks, f.inst->blocks().blocks_of(1));
    };
    f.s.run();
    EXPECT_GE(max_blocks, 3u); // 16+39 tokens -> >= 4 blocks at the end
}

TEST(InstanceDecode, PipelineGroupsRunConcurrently)
{
    Fixture f1(decode_cfg(), {2, 1});
    Fixture f2(decode_cfg(), {2, 2});
    // Same total work: 8 requests, 21 tokens each.
    std::vector<wl::Request> reqs1, reqs2;
    for (int i = 0; i < 8; ++i) {
        reqs1.push_back(make_req(i, 256, 21));
        reqs2.push_back(make_req(i, 256, 21));
    }
    for (auto &r : reqs1) {
        r.generated = 1;
        f1.s.schedule(0.0, [&] { f1.inst->enqueue_decode(&r, false); });
    }
    for (auto &r : reqs2) {
        r.generated = 1;
        f2.s.schedule(0.0, [&] { f2.inst->enqueue_decode(&r, false); });
    }
    f1.s.run();
    f2.s.run();
    EXPECT_EQ(f1.finished.size(), 8u);
    EXPECT_EQ(f2.finished.size(), 8u);
    // PP-2 splits the batch into 2 concurrent groups; with per-pass
    // latency similar, the makespan should NOT be 2x worse, and each
    // group's batch is half the size (cheaper iterations).
    EXPECT_LT(f2.s.now(), 1.5 * f1.s.now());
}

TEST(InstanceChunked, PrefillProceedsInChunks)
{
    Fixture f(colocated_cfg());
    auto r = make_req(1, 1000, 5); // 1000 tokens / 256 chunk -> 4 passes
    f.s.schedule(0.0, [&] { f.inst->enqueue_prefill(&r); });
    f.s.run();
    ASSERT_EQ(f.prefilled.size(), 1u);
    EXPECT_TRUE(r.was_chunked);
    EXPECT_EQ(r.prefilled, 1000u);
    // Chunked prefill is slower than a monolithic pass (Fig. 7).
    EXPECT_GT(r.first_token_time,
              f.inst->cost().prefill_time(1000.0));
}

TEST(InstanceChunked, DecodePiggybacksDuringChunks)
{
    Fixture f(colocated_cfg());
    auto a = make_req(1, 256, 10); // will decode
    auto b = make_req(2, 2000, 50); // long chunked prefill, long output
    f.inst->callbacks.on_prefill_complete = [&](wl::Request *r) {
        f.prefilled.push_back(r);
        f.inst->enqueue_decode(r, true); // colocated wiring
    };
    f.s.schedule(0.0, [&] { f.inst->enqueue_prefill(&a); });
    f.s.schedule(0.01, [&] { f.inst->enqueue_prefill(&b); });
    f.s.run();
    EXPECT_EQ(f.finished.size(), 2u);
    // a generated tokens while b's chunks were processing.
    EXPECT_LT(a.finish_time, b.finish_time);
}

TEST(InstanceSbd, StreamRunsAlongsideDecode)
{
    Fixture f(decode_cfg(/*sbd=*/true));
    auto d = make_req(1, 512, 200);
    d.generated = 1;
    auto p = make_req(2, 1024, 5);
    f.s.schedule(0.0, [&] { f.inst->enqueue_decode(&d, false); });
    double stream_seen_with_decode_busy = 0;
    f.s.schedule(0.05, [&] {
        f.inst->enqueue_assist_prefill(&p);
    });
    f.s.schedule(0.06, [&] {
        if (f.inst->sbd_stream_active() &&
            f.inst->running_decode_requests() > 0)
            stream_seen_with_decode_busy = 1;
    });
    f.s.run();
    EXPECT_EQ(stream_seen_with_decode_busy, 1);
    ASSERT_EQ(f.prefilled.size(), 1u);
    EXPECT_TRUE(p.prefill_dispatched);
    // The assist prefill's KV is resident here afterwards.
    EXPECT_TRUE(f.inst->blocks().holds(2));
    // SBD stream duration matches the calibrated slowdown.
    EXPECT_NEAR(p.first_token_time - p.prefill_start_time,
                f.inst->cost().sbd_prefill_time(1024.0), 1e-9);
}

TEST(InstanceSbd, DecodeIterationsSlowerDuringStream)
{
    Fixture f(decode_cfg(/*sbd=*/true));
    auto d = make_req(1, 512, 400);
    d.generated = 1;
    auto p = make_req(2, 4096, 5);
    f.s.schedule(0.0, [&] { f.inst->enqueue_decode(&d, false); });
    f.s.schedule(0.02, [&] { f.inst->enqueue_assist_prefill(&p); });
    f.s.run();
    // Token times during the stream window reflect sbd_decode_time;
    // total elapsed must exceed the undisturbed schedule.
    double undisturbed = 0.0;
    for (int i = 0; i < 399; ++i)
        undisturbed +=
            f.inst->cost().decode_time(1.0, 512.0 + 1.0 + i);
    EXPECT_GT(d.finish_time, undisturbed);
}

TEST(InstanceHybrid, NoSplitMergesAssistIntoPass)
{
    Fixture f(decode_cfg(/*sbd=*/false));
    auto d = make_req(1, 512, 100);
    d.generated = 1;
    auto p = make_req(2, 1024, 5);
    f.s.schedule(0.0, [&] { f.inst->enqueue_decode(&d, false); });
    f.s.schedule(0.03, [&] { f.inst->enqueue_assist_prefill(&p); });
    f.s.run();
    ASSERT_EQ(f.prefilled.size(), 1u);
    EXPECT_FALSE(f.inst->sbd_stream_active());
    // The hybrid pass is a full prefill plus decode in one stream: the
    // pass that carried it is far longer than a decode iteration.
    EXPECT_GT(p.first_token_time - p.prefill_start_time,
              f.inst->cost().prefill_time(1024.0) * 0.9);
}

TEST(InstanceSwap, ExhaustionPreemptsLatestArrival)
{
    // Capacity: 512 tokens = 32 blocks. Two requests of 200 prompt fit;
    // growth forces a swap eventually.
    Fixture f(decode_cfg(), {2, 1}, /*kv_override=*/512);
    auto a = make_req(1, 200, 150);
    a.generated = 1;
    a.arrival_time = 0.0;
    auto b = make_req(2, 200, 150);
    b.generated = 1;
    b.arrival_time = 1.0; // later arrival -> preferred victim
    f.s.schedule(0.0, [&] {
        f.inst->enqueue_decode(&a, false);
        f.inst->enqueue_decode(&b, false);
    });
    f.s.run();
    EXPECT_EQ(f.finished.size(), 2u);
    EXPECT_GE(f.inst->swap_out_events(), 1u);
    EXPECT_GE(b.swap_outs, 1u);
    EXPECT_EQ(a.swap_outs, 0u); // earlier arrival is protected first
    EXPECT_EQ(f.inst->blocks().used_blocks(), 0u);
}

TEST(InstanceSwap, SwappedRequestEventuallyFinishes)
{
    Fixture f(decode_cfg(), {2, 1}, /*kv_override=*/384);
    std::vector<wl::Request> reqs;
    for (int i = 0; i < 3; ++i)
        reqs.push_back(make_req(i, 100, 120, static_cast<double>(i)));
    for (auto &r : reqs) {
        r.generated = 1;
        f.s.schedule(0.0, [&] { f.inst->enqueue_decode(&r, false); });
    }
    f.s.run_until(3600.0);
    EXPECT_EQ(f.finished.size(), 3u);
    for (auto &r : reqs)
        EXPECT_TRUE(r.finished());
}

TEST(InstanceAssist, BouncesWhenKvFull)
{
    Fixture f(decode_cfg(/*sbd=*/true), {2, 1}, /*kv_override=*/256);
    auto d = make_req(1, 240, 100);
    d.generated = 1;
    auto p = make_req(2, 200, 5); // cannot fit alongside d
    f.s.schedule(0.0, [&] { f.inst->enqueue_decode(&d, false); });
    f.s.schedule(0.01, [&] { f.inst->enqueue_assist_prefill(&p); });
    f.s.run();
    EXPECT_EQ(f.bounced.size(), 1u);
    EXPECT_EQ(f.bounced[0], &p);
}

TEST(InstanceMigrationSupport, PauseAndRelease)
{
    Fixture f(decode_cfg());
    auto r = make_req(1, 512, 1000);
    r.generated = 1;
    f.s.schedule(0.0, [&] { f.inst->enqueue_decode(&r, false); });
    f.s.schedule(0.1, [&] {
        EXPECT_TRUE(f.inst->is_decoding(&r));
        f.inst->pause_decoding(&r);
        EXPECT_FALSE(f.inst->is_decoding(&r));
        f.inst->release_kv(&r);
        EXPECT_FALSE(f.inst->blocks().holds(1));
    });
    f.s.run_until(5.0);
    EXPECT_FALSE(r.finished());
    EXPECT_LT(r.generated, 1000u);
}

TEST(InstanceObservations, CallbacksCarryPlausibleData)
{
    Fixture f(prefill_cfg());
    double obs_n = 0, obs_t = 0;
    f.inst->callbacks.on_prefill_observation = [&](double n, double t) {
        obs_n = n;
        obs_t = t;
    };
    auto r = make_req(1, 777, 10);
    f.s.schedule(0.0, [&] { f.inst->enqueue_prefill(&r); });
    f.s.run();
    EXPECT_DOUBLE_EQ(obs_n, 777.0);
    EXPECT_NEAR(obs_t, f.inst->cost().prefill_time(777.0), 1e-9);
}

TEST(InstanceConfigValidation, OutOfRangeFieldsNamed)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::pair<const char *, std::function<void(eng::InstanceConfig &)>>
        cases[] = {
            {"block_size", [](auto &c) { c.block_size = 0; }},
            {"max_batch_size", [](auto &c) { c.max_batch_size = 0; }},
            {"max_prefill_tokens", [](auto &c) { c.max_prefill_tokens = 0; }},
            {"max_prefill_requests",
             [](auto &c) { c.max_prefill_requests = 0; }},
            {"chunk_size", [](auto &c) { c.chunk_size = 0; }},
            {"exec_noise_sigma", [](auto &c) { c.exec_noise_sigma = -0.1; }},
            {"exec_noise_sigma", [=](auto &c) { c.exec_noise_sigma = nan; }},
            {"host_memory_bytes", [](auto &c) { c.host_memory_bytes = -1.0; }},
            {"host_memory_bytes", [=](auto &c) { c.host_memory_bytes = inf; }},
        };
    md::CostModel cost(md::ModelSpec::opt_13b(), hw::GpuSpec::a800_80g(),
                       {2, 1});
    for (const auto &[field, edit] : cases) {
        sim::Simulator s;
        eng::InstanceConfig cfg = decode_cfg();
        cfg.name = "probe";
        edit(cfg);
        std::string what = "<no std::invalid_argument>";
        try {
            eng::Instance inst(s, cfg, cost, sim::Rng(1),
                               hw::Link{hw::LinkType::HostPCIe, 20e9, 1e-6});
        } catch (const std::invalid_argument &e) {
            what = e.what();
        }
        EXPECT_NE(what.find("'probe'"), std::string::npos) << what;
        EXPECT_NE(what.find(field), std::string::npos) << what;
    }
    // The boundaries are accepted: noiseless, swap-less, one-token knobs.
    sim::Simulator s;
    eng::InstanceConfig edge = decode_cfg();
    edge.block_size = edge.max_batch_size = edge.max_prefill_tokens =
        edge.max_prefill_requests = edge.chunk_size = 1;
    edge.exec_noise_sigma = 0.0;
    edge.host_memory_bytes = 0.0;
    EXPECT_NO_THROW(eng::Instance(s, edge, cost, sim::Rng(1),
                                  hw::Link{hw::LinkType::HostPCIe, 20e9,
                                           1e-6}));
}

TEST(InstanceUtilization, AccruesWithWork)
{
    Fixture f(prefill_cfg());
    auto r = make_req(1, 2048, 10);
    f.s.schedule(0.0, [&] { f.inst->enqueue_prefill(&r); });
    f.s.run();
    EXPECT_GT(f.inst->mean_compute_utilization(), 0.3);
}

// Regression: a prompt being chunk-processed on the prefill instance
// must finish even if every migrated decode drains mid-prompt (chunk
// mode deactivates with the chunk head partially processed).
TEST(InstanceChunked, OrphanedChunkHeadStillFinishes)
{
    eng::InstanceConfig cfg;
    cfg.role = eng::InstanceRole::Prefill;
    cfg.chunked_prefill = true;
    cfg.chunk_size = 256;
    Fixture f(cfg);
    // A short migrated decode puts the instance into chunk mode.
    auto dec = make_req(1, 128, 3);
    dec.generated = 1;
    // A long prompt that will still be mid-chunking when dec finishes.
    auto pre = make_req(2, 2048, 5);
    f.s.schedule(0.0, [&] {
        f.inst->enqueue_decode(&dec, false);
        f.inst->enqueue_prefill(&pre);
    });
    f.s.run_until(600.0);
    ASSERT_EQ(f.finished.size(), 1u); // dec done
    ASSERT_EQ(f.prefilled.size(), 1u)
        << "chunk head orphaned after chunk mode deactivated";
    EXPECT_EQ(pre.prefilled, 2048u);
}

TEST(InstanceSingleOutputToken, NoDecodePhaseNeeded)
{
    Fixture f(prefill_cfg());
    auto r = make_req(1, 128, 1);
    f.s.schedule(0.0, [&] { f.inst->enqueue_prefill(&r); });
    f.s.run();
    // The instance reports prefill completion; the system would finish
    // the request. No decode iterations happen here.
    EXPECT_EQ(f.prefilled.size(), 1u);
    EXPECT_EQ(f.inst->decode_iterations(), 0u);
}

// ---------------------------------------------------------------------
// decode-group membership stamped on the request
// ---------------------------------------------------------------------

TEST(InstanceGroupId, StampedWhileDecodingClearedAtFinish)
{
    Fixture f(decode_cfg());
    auto r = make_req(1, 512, 11);
    r.generated = 1;
    bool stamped = false;
    f.inst->callbacks.on_step = [&] {
        if (r.finished())
            return;
        stamped = true;
        EXPECT_NE(r.decode_group, 0u);
        EXPECT_TRUE(f.inst->is_decoding(&r));
    };
    f.s.schedule(0.0, [&] { f.inst->enqueue_decode(&r, false); });
    f.s.run();
    ASSERT_TRUE(r.finished());
    EXPECT_TRUE(stamped);
    EXPECT_EQ(r.decode_group, 0u);
    EXPECT_FALSE(f.inst->is_decoding(&r));
}

TEST(InstanceGroupId, SwapOutClearsGroupId)
{
    Fixture f(decode_cfg(), {2, 1}, /*kv_override=*/512);
    auto a = make_req(1, 200, 150);
    a.generated = 1;
    auto b = make_req(2, 200, 150, /*arrival=*/1.0);
    b.generated = 1;
    bool saw_swapped = false;
    f.inst->callbacks.on_step = [&] {
        for (const wl::Request *r : {&a, &b}) {
            EXPECT_EQ(r->decode_group != 0, f.inst->is_decoding(r));
            if (r->state == wl::RequestState::SwappedOut) {
                saw_swapped = true;
                EXPECT_EQ(r->decode_group, 0u);
            }
        }
    };
    f.s.schedule(0.0, [&] {
        f.inst->enqueue_decode(&a, false);
        f.inst->enqueue_decode(&b, false);
    });
    f.s.run();
    EXPECT_TRUE(saw_swapped);
    EXPECT_GE(b.swap_outs, 1u);
    EXPECT_EQ(f.finished.size(), 2u);
    EXPECT_EQ(a.decode_group, 0u);
    EXPECT_EQ(b.decode_group, 0u);
}

TEST(InstanceGroupId, CrashClearsGroupIdAndAllowsReadmission)
{
    Fixture f(decode_cfg());
    auto r = make_req(1, 512, 40);
    r.generated = 1;
    f.s.schedule(0.0, [&] { f.inst->enqueue_decode(&r, false); });
    f.s.schedule(0.1, [&] {
        ASSERT_NE(r.decode_group, 0u);
        auto victims = f.inst->crash();
        EXPECT_NE(std::find(victims.begin(), victims.end(), &r),
                  victims.end());
        EXPECT_EQ(r.decode_group, 0u);
        EXPECT_FALSE(f.inst->is_decoding(&r));
        for (const auto &grp : f.inst->groups()) {
            EXPECT_EQ(grp.size(), 0u);
            EXPECT_TRUE(grp.handles.empty());
        }
    });
    f.s.schedule(0.2, [&] {
        f.inst->repair();
        r.generated = 1;
        f.inst->enqueue_decode(&r, false); // re-admission must not throw
    });
    f.s.run();
    EXPECT_TRUE(r.finished());
    EXPECT_EQ(r.decode_group, 0u);
}

TEST(InstanceGroupId, OtherInstanceGroupWithSameIndexDoesNotClaimRequest)
{
    // The migration-target hazard: a request decoding in group 0 of one
    // instance must not look resident in group 0 of another.
    Fixture src(decode_cfg());
    Fixture dst(prefill_cfg());
    auto r = make_req(1, 512, 1000);
    r.generated = 1;
    src.s.schedule(0.0, [&] { src.inst->enqueue_decode(&r, false); });
    src.s.run_until(0.1);
    ASSERT_TRUE(src.inst->is_decoding(&r));
    ASSERT_EQ(src.inst->groups().size(), dst.inst->groups().size());
    for (std::size_t g = 0; g < dst.inst->groups().size(); ++g)
        EXPECT_FALSE(dst.inst->groups()[g].contains(&r));
    EXPECT_FALSE(dst.inst->is_decoding(&r));
}

TEST(RequestLayout, GroupIdFillsPaddingAfterState)
{
    if constexpr (sizeof(void *) == 8) {
        EXPECT_EQ(sizeof(wl::Request), 144u);
    }
}
