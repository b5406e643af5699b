/**
 * @file
 * Integration tests for the three serving systems end to end.
 */
#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>

#include "baselines/baseline_system.hpp"
#include "core/windserve_system.hpp"
#include "harness/experiment.hpp"

namespace core = windserve::core;
namespace bl = windserve::baselines;
namespace hs = windserve::harness;
namespace wl = windserve::workload;
namespace mt = windserve::metrics;

namespace {

std::vector<wl::Request>
small_trace(double rate, std::size_t n, std::uint64_t seed = 11)
{
    wl::TraceConfig tc;
    tc.dataset = wl::DatasetConfig::sharegpt();
    tc.arrival.rate = rate;
    tc.num_requests = n;
    tc.seed = seed;
    return wl::TraceBuilder(tc).build();
}

void
expect_all_finished_sane(const std::vector<wl::Request> &reqs)
{
    for (const auto &r : reqs) {
        ASSERT_TRUE(r.finished()) << "request " << r.id << " stuck in "
                                  << wl::to_string(r.state);
        ASSERT_GE(r.ttft(), 0.0);
        ASSERT_GE(r.first_token_time, r.arrival_time);
        ASSERT_GE(r.finish_time, r.first_token_time);
        ASSERT_EQ(r.generated, r.output_tokens);
        if (r.output_tokens > 1) {
            ASSERT_GT(r.tpot(), 0.0);
        }
    }
}

} // namespace

TEST(WindServeSystem, CompletesModerateLoad)
{
    core::WindServeConfig cfg;
    auto trace = small_trace(8.0, 400);
    core::WindServeSystem sys(cfg);
    auto rr = sys.run(trace);
    expect_all_finished_sane(rr.requests);
    // All KV returned.
    EXPECT_EQ(sys.prefill(0).blocks().used_blocks(), 0u);
    EXPECT_EQ(sys.decode(0).blocks().used_blocks(), 0u);
}

TEST(WindServeSystem, DeterministicAcrossRuns)
{
    auto run_once = [] {
        core::WindServeConfig cfg;
        core::WindServeSystem sys(cfg);
        auto rr = sys.run(small_trace(10.0, 300));
        std::vector<double> fts;
        for (const auto &r : rr.requests)
            fts.push_back(r.finish_time);
        return fts;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(WindServeSystem, TtftNeverBelowPurePrefillTime)
{
    core::WindServeConfig cfg;
    cfg.exec_noise_sigma = 0.0;
    core::WindServeSystem sys(cfg);
    auto rr = sys.run(small_trace(6.0, 200));
    const auto &cost = sys.prefill(0).cost();
    for (const auto &r : rr.requests) {
        // TTFT includes at least the prompt's own pass time (possibly
        // within a bigger batch; batch time > own time).
        EXPECT_GE(r.ttft() * 1.000001,
                  cost.prefill_time(
                      static_cast<double>(r.prompt_tokens)));
    }
}

TEST(WindServeSystem, DispatchEngagesUnderOverload)
{
    core::WindServeConfig cfg;
    core::WindServeSystem sys(cfg);
    auto rr = sys.run(small_trace(24.0, 600)); // beyond prefill capacity
    std::size_t dispatched = 0;
    for (const auto &r : rr.requests)
        dispatched += r.prefill_dispatched;
    EXPECT_GT(dispatched, 10u);
    EXPECT_GT(sys.scheduler().coordinator().dispatches(), 10u);
}

TEST(WindServeSystem, NoDispatchAblationNeverDispatches)
{
    hs::ExperimentConfig ec;
    ec.system = hs::SystemKind::WindServeNoDispatch;
    ec.per_gpu_rate = 6.0;
    ec.num_requests = 300;
    auto result = hs::run_experiment(ec);
    EXPECT_EQ(result.dispatches, 0u);
}

TEST(WindServeSystem, OutOfRangePodConfigNamed)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::pair<const char *, std::function<void(core::WindServeConfig &)>>
        cases[] = {
            {"ttft_slo", [](auto &c) { c.ttft_slo = 0.0; }},
            {"ttft_slo", [=](auto &c) { c.ttft_slo = nan; }},
            {"tpot_slo", [](auto &c) { c.tpot_slo = -0.1; }},
            {"tpot_slo",
             [](auto &c) {
                 c.tpot_slo = std::numeric_limits<double>::infinity();
             }},
            {"dispatch_reserve_fraction",
             [](auto &c) { c.dispatch_reserve_fraction = -0.01; }},
            {"dispatch_reserve_fraction",
             [](auto &c) { c.dispatch_reserve_fraction = 1.5; }},
            {"dispatch_reserve_fraction",
             [=](auto &c) { c.dispatch_reserve_fraction = nan; }},
            {"thrd", [=](auto &c) { c.coordinator.thrd = nan; }},
            {"thrd", [](auto &c) { c.coordinator.thrd = -1.0; }},
            {"budget_ttft_fraction",
             [=](auto &c) { c.coordinator.budget_ttft_fraction = nan; }},
            {"budget_ttft_fraction",
             [](auto &c) { c.coordinator.budget_ttft_fraction = -0.5; }},
            {"budget_ttft_fraction",
             [](auto &c) { c.coordinator.budget_ttft_fraction = 0.0; }},
            {"resched_occupancy_trigger",
             [=](auto &c) { c.coordinator.resched_occupancy_trigger = nan; }},
            {"resched_occupancy_trigger",
             [](auto &c) { c.coordinator.resched_occupancy_trigger = -0.1; }},
            {"resched_occupancy_trigger",
             [](auto &c) { c.coordinator.resched_occupancy_trigger = 1.5; }},
        };
    for (const auto &[field, edit] : cases) {
        core::WindServeConfig cfg;
        edit(cfg);
        std::string what = "<no std::invalid_argument>";
        try {
            core::WindServeSystem sys(cfg);
        } catch (const std::invalid_argument &e) {
            what = e.what();
        }
        EXPECT_NE(what.find("pod 0"), std::string::npos) << what;
        EXPECT_NE(what.find(field), std::string::npos) << what;
    }
    // The edges of each range stay accepted.
    for (auto edit : std::initializer_list<
             std::function<void(core::WindServeConfig &)>>{
             [](auto &c) { c.coordinator.thrd = 0.0; },
             [](auto &c) { c.coordinator.thrd = 1e6; },
             [](auto &c) { c.coordinator.budget_ttft_fraction = 1.0; },
             [](auto &c) { c.coordinator.resched_occupancy_trigger = 0.0; },
             [](auto &c) { c.coordinator.resched_occupancy_trigger = 0.99; },
         }) {
        core::WindServeConfig cfg;
        edit(cfg);
        EXPECT_NO_THROW(core::WindServeSystem sys(cfg));
    }
}

TEST(DistServeSystem, CompletesModerateLoad)
{
    bl::DistServeConfig cfg;
    bl::BaselineSystem sys(cfg);
    auto rr = sys.run(small_trace(8.0, 400));
    expect_all_finished_sane(rr.requests);
    EXPECT_EQ(sys.prefill(0).blocks().used_blocks(), 0u);
    EXPECT_EQ(sys.decode(0).blocks().used_blocks(), 0u);
}

TEST(DistServeSystem, TransferDelaysDecodeStart)
{
    bl::DistServeConfig cfg;
    cfg.exec_noise_sigma = 0.0;
    bl::BaselineSystem sys(cfg);
    auto rr = sys.run(small_trace(2.0, 100));
    double kv_per_token =
        cfg.model.kv_bytes_per_token();
    for (const auto &r : rr.requests) {
        if (r.output_tokens <= 1)
            continue;
        ASSERT_NE(r.transfer_done_time, wl::kNoTime);
        // Synchronous policy: transfer takes at least bytes/bandwidth.
        double min_transfer =
            static_cast<double>(r.prompt_tokens) * kv_per_token / 23e9;
        EXPECT_GE(r.transfer_done_time - r.first_token_time,
                  0.9 * min_transfer);
        EXPECT_GE(r.decode_enqueue_time, r.transfer_done_time - 1e-9);
    }
}

TEST(VllmSystem, CompletesModerateLoad)
{
    bl::VllmConfig cfg;
    bl::BaselineSystem sys(cfg);
    auto rr = sys.run(small_trace(8.0, 400));
    expect_all_finished_sane(rr.requests);
    for (std::size_t i = 0; i < sys.num_replicas(); ++i)
        EXPECT_EQ(sys.prefill(i).blocks().used_blocks(), 0u);
}

TEST(VllmSystem, NoTransfersEver)
{
    bl::VllmConfig cfg;
    bl::BaselineSystem sys(cfg);
    auto rr = sys.run(small_trace(4.0, 200));
    for (const auto &r : rr.requests)
        EXPECT_EQ(r.transfer_done_time, wl::kNoTime);
}

TEST(VllmSystem, ChunkedPrefillMarksRequests)
{
    bl::VllmConfig cfg;
    cfg.chunk_size = 256;
    bl::BaselineSystem sys(cfg);
    auto rr = sys.run(small_trace(4.0, 200));
    std::size_t chunked = 0;
    for (const auto &r : rr.requests)
        chunked += r.was_chunked;
    EXPECT_GT(chunked, 100u);
}

// The paper's headline (Fig. 10a): under prefill overload WindServe's
// TTFT beats DistServe's by a wide margin, without wrecking TPOT.
TEST(SystemComparison, WindServeBeatsDistServeUnderLoad)
{
    auto trace = small_trace(18.0, 800, 21);
    auto slo = mt::SloSpec::opt_13b_sharegpt();
    core::WindServeConfig wcfg;
    core::WindServeSystem wind(wcfg);
    auto wm = wind.run(trace, slo).metrics;
    bl::DistServeConfig dcfg;
    bl::BaselineSystem dist(dcfg);
    auto dm = dist.run(trace, slo).metrics;
    EXPECT_LT(wm.ttft.median(), 0.6 * dm.ttft.median());
    EXPECT_GE(wm.slo_attainment, dm.slo_attainment);
    // TPOT should stay within ~2x of DistServe's undisturbed decode.
    EXPECT_LT(wm.tpot.p99(), 2.0 * std::max(dm.tpot.p99(), 0.02));
}

TEST(SystemComparison, LowLoadAllSystemsHealthy)
{
    auto trace = small_trace(4.0, 300, 33);
    mt::Collector col(mt::SloSpec::opt_13b_sharegpt());
    for (auto kind : {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
                      hs::SystemKind::Vllm}) {
        hs::ExperimentConfig ec;
        ec.system = kind;
        ec.per_gpu_rate = 1.0;
        ec.num_requests = 300;
        auto r = hs::run_experiment(ec);
        EXPECT_GT(r.metrics.slo_attainment, 0.7)
            << hs::to_string(kind);
        EXPECT_EQ(r.metrics.num_finished, 300u) << hs::to_string(kind);
    }
}

TEST(SystemComparison, UtilizationShapeMatchesFig2)
{
    // Prefill instances burn compute; decode instances burn bandwidth.
    hs::ExperimentConfig ec;
    ec.system = hs::SystemKind::DistServe;
    ec.per_gpu_rate = 3.0;
    ec.num_requests = 500;
    auto r = hs::run_experiment(ec);
    EXPECT_GT(r.metrics.prefill_compute_util, 0.15);
    EXPECT_GT(r.metrics.decode_bandwidth_util, 0.15);
    EXPECT_GT(r.metrics.prefill_compute_util,
              r.metrics.decode_compute_util);
}

TEST(WindServeAblations, NoSplitUsesHybridPasses)
{
    hs::ExperimentConfig ec;
    ec.system = hs::SystemKind::WindServeNoSplit;
    ec.per_gpu_rate = 6.0;
    ec.num_requests = 400;
    auto r = hs::run_experiment(ec);
    EXPECT_EQ(r.metrics.num_finished, 400u);
    // Dispatches still occur; they just run as hybrid passes.
    EXPECT_GT(r.dispatches, 0u);
}

TEST(WindServeAblations, NoRescheNeverMigrates)
{
    hs::ExperimentConfig ec;
    ec.system = hs::SystemKind::WindServeNoResche;
    ec.per_gpu_rate = 6.0;
    ec.num_requests = 400;
    auto r = hs::run_experiment(ec);
    EXPECT_EQ(r.reschedules, 0u);
    EXPECT_EQ(r.migrations_completed, 0u);
}

TEST(WindServeSystem, OverlappedTransferBeatsSynchronousTpot)
{
    // LLaMA2-13B on LongBench is the paper's showcase for asynchronous
    // KV transfer (§5.2, Fig. 10d top).
    auto scenario = hs::Scenario::llama2_13b_longbench();
    wl::TraceConfig tc;
    tc.dataset = scenario.dataset;
    tc.arrival.rate = 2.0;
    tc.num_requests = 300;
    tc.seed = 5;
    auto trace = wl::TraceBuilder(tc).build();

    core::WindServeConfig async_cfg;
    async_cfg.model = scenario.model;
    async_cfg.ttft_slo = scenario.slo.ttft;
    async_cfg.tpot_slo = scenario.slo.tpot;
    core::WindServeSystem async_sys(async_cfg);
    auto am = async_sys.run(trace, scenario.slo).metrics;

    core::WindServeConfig sync_cfg = async_cfg;
    sync_cfg.transfer.policy = windserve::transfer::TransferPolicy::Synchronous;
    core::WindServeSystem sync_sys(sync_cfg);
    auto sm = sync_sys.run(trace, scenario.slo).metrics;
    // The 2nd token waits on the transfer under the sync policy, so
    // TPOT — mean and especially the tail — is visibly worse. (Mean
    // decode *queueing* is no longer a usable proxy: admission control
    // admits block holders promptly regardless of queue position, and
    // the residual difference is seed-level noise.)
    EXPECT_LT(am.tpot.mean(), sm.tpot.mean());
    EXPECT_LT(am.tpot.p99(), sm.tpot.p99());
}
