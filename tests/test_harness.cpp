/**
 * @file
 * Unit tests for the experiment harness (scenarios, runner, sweep,
 * tables).
 */
#include <gtest/gtest.h>

#include <utility>

#include "engine/instance.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"

namespace hs = windserve::harness;

TEST(Scenario, Table3PlacementsEncoded)
{
    auto s13 = hs::Scenario::opt13b_sharegpt();
    EXPECT_EQ(s13.prefill_parallelism, (windserve::model::ParallelismConfig{2, 1}));
    EXPECT_EQ(s13.decode_parallelism, (windserve::model::ParallelismConfig{2, 1}));
    EXPECT_EQ(s13.num_gpus(), 4u);

    auto s66 = hs::Scenario::opt66b_sharegpt();
    EXPECT_EQ(s66.prefill_parallelism, (windserve::model::ParallelismConfig{2, 2}));
    EXPECT_EQ(s66.num_gpus(), 8u);

    auto l70 = hs::Scenario::llama2_70b_longbench();
    EXPECT_EQ(l70.model.name, "LLaMA2-70B");
    EXPECT_EQ(l70.num_gpus(), 8u);
}

TEST(Scenario, Table4SlosEncoded)
{
    EXPECT_DOUBLE_EQ(hs::Scenario::opt13b_sharegpt().slo.ttft, 0.25);
    EXPECT_DOUBLE_EQ(hs::Scenario::opt66b_sharegpt().slo.tpot, 0.15);
    EXPECT_DOUBLE_EQ(hs::Scenario::llama2_13b_longbench().slo.ttft, 4.0);
}

TEST(Scenario, DatasetsMatchModels)
{
    EXPECT_EQ(hs::Scenario::opt13b_sharegpt().dataset.kind,
              windserve::workload::DatasetKind::ShareGPT);
    EXPECT_EQ(hs::Scenario::llama2_13b_longbench().dataset.kind,
              windserve::workload::DatasetKind::LongBench);
    // Context caps track the model.
    EXPECT_EQ(hs::Scenario::opt13b_sharegpt().dataset.max_context, 2048u);
    EXPECT_EQ(hs::Scenario::llama2_70b_longbench().dataset.max_context,
              4096u);
}

TEST(Scenario, SmallDecodeVariantForFig3)
{
    auto s = hs::Scenario::opt13b_sharegpt_small_decode();
    EXPECT_EQ(s.decode_parallelism.num_gpus(), 1u);
    EXPECT_EQ(s.num_gpus(), 3u);
}

TEST(Experiment, TraceUsesPerGpuRate)
{
    hs::ExperimentConfig ec;
    ec.per_gpu_rate = 2.0; // 4 GPUs -> 8 req/s aggregate
    ec.num_requests = 4000;
    auto trace = hs::make_trace(ec);
    double span = trace.back().arrival_time - trace.front().arrival_time;
    double rate = static_cast<double>(trace.size() - 1) / span;
    EXPECT_NEAR(rate, 8.0, 0.5);
}

TEST(Experiment, MakeSystemBuildsEveryKind)
{
    for (auto kind :
         {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
          hs::SystemKind::Vllm, hs::SystemKind::WindServeNoSplit,
          hs::SystemKind::WindServeNoResche,
          hs::SystemKind::WindServeNoDispatch}) {
        hs::ExperimentConfig ec;
        ec.system = kind;
        auto sys = hs::make_system(ec);
        ASSERT_NE(sys, nullptr);
        EXPECT_EQ(sys->num_gpus(), 4u);
    }
}

TEST(Harness, SharedKnobsReachEveryInstance)
{
    hs::ExperimentConfig ec;
    ec.swap_enabled = false;
    ec.host_memory_bytes = 1e9;
    ec.kv_capacity_tokens_override = 4096;
    auto expect_shared = [](const windserve::engine::Instance &inst) {
        const windserve::engine::InstanceConfig &c = inst.config();
        EXPECT_FALSE(c.swap_enabled) << c.name;
        EXPECT_EQ(c.host_memory_bytes, 1e9) << c.name;
        EXPECT_EQ(c.kv_capacity_tokens_override, 4096u) << c.name;
    };
    // WindServe with one pod and with two, DistServe with two replicas,
    // and vLLM.
    const std::pair<hs::SystemKind, std::size_t> cases[] = {
        {hs::SystemKind::WindServe, 1},
        {hs::SystemKind::WindServe, 2},
        {hs::SystemKind::DistServe, 2},
        {hs::SystemKind::Vllm, 1},
    };
    for (const auto &[kind, pods_per_node] : cases) {
        ec.system = kind;
        ec.pods_per_node = pods_per_node;
        auto sys = hs::make_system(ec);
        ASSERT_EQ(sys->num_replicas(), kind == hs::SystemKind::Vllm
                                           ? 2u
                                           : pods_per_node);
        for (std::size_t i = 0; i < sys->num_replicas(); ++i) {
            expect_shared(sys->prefill(i));
            expect_shared(sys->decode(i));
            if (kind == hs::SystemKind::WindServe) {
                EXPECT_EQ(sys->prefill(i).config().chunk_size, 2048u);
                EXPECT_EQ(sys->decode(i).config().chunk_size, 512u);
            } else if (kind == hs::SystemKind::Vllm) {
                EXPECT_EQ(sys->prefill(i).config().chunk_size, 2048u);
            }
        }
    }
}

TEST(Experiment, RunProducesMetrics)
{
    hs::ExperimentConfig ec;
    ec.per_gpu_rate = 1.0;
    ec.num_requests = 150;
    auto r = hs::run_experiment(ec);
    EXPECT_EQ(r.system_name, "WindServe");
    EXPECT_EQ(r.metrics.num_requests, 150u);
    EXPECT_EQ(r.metrics.num_finished, 150u);
    EXPECT_GT(r.metrics.ttft.count(), 0u);
}

TEST(Experiment, ThresholdOverridePlumbs)
{
    hs::ExperimentConfig lo, hi;
    lo.per_gpu_rate = hi.per_gpu_rate = 5.0;
    lo.num_requests = hi.num_requests = 400;
    lo.thrd = 0.01;
    hi.thrd = 1e6;
    auto rl = hs::run_experiment(lo);
    auto rh = hs::run_experiment(hi);
    EXPECT_GT(rl.dispatches, rh.dispatches);
    EXPECT_EQ(rh.dispatches, 0u);
}

TEST(Sweep, GridShapeAndOrdering)
{
    std::size_t cells = 0;
    auto result =
        hs::SweepBuilder()
            .systems({hs::SystemKind::WindServe, hs::SystemKind::DistServe})
            .rates({0.5, 1.0})
            .num_requests(120)
            .on_progress([&](std::size_t k, std::size_t total,
                             const hs::ExperimentResult &) {
                EXPECT_EQ(k, cells); // strictly in cell order
                EXPECT_EQ(total, 4u);
                ++cells;
            })
            .run();
    EXPECT_EQ(cells, 4u);
    ASSERT_EQ(result.results.size(), 2u);
    ASSERT_EQ(result.results[0].size(), 2u);
    EXPECT_EQ(result.results[0][0].system_name, "WindServe");
    EXPECT_EQ(result.results[1][1].system_name, "DistServe");
    EXPECT_DOUBLE_EQ(result.results[1][1].per_gpu_rate, 1.0);
}

TEST(Sweep, LatencyDegradesWithRate)
{
    auto result = hs::SweepBuilder()
                      .systems({hs::SystemKind::DistServe})
                      .rates({1.0, 5.0})
                      .num_requests(400)
                      .run();
    EXPECT_LT(result.results[0][0].metrics.ttft.median(),
              result.results[0][1].metrics.ttft.median());
}

TEST(TextTable, RendersAligned)
{
    hs::TextTable t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "22222"});
    auto out = t.render();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
    // Column alignment: both rows contain the header width.
    auto header_end = out.find('\n');
    EXPECT_NE(header_end, std::string::npos);
}

TEST(TextTable, CsvOutput)
{
    hs::TextTable t({"a", "b"});
    t.add_row({"1", "2"});
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(TextTable, RowWidthEnforced)
{
    hs::TextTable t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, CellFormatsPrecision)
{
    EXPECT_EQ(hs::cell(1.23456, 2), "1.23");
    EXPECT_EQ(hs::cell(2.0, 0), "2");
}

TEST(SystemKind, NamesRoundTrip)
{
    EXPECT_STREQ(hs::to_string(hs::SystemKind::WindServe), "WindServe");
    EXPECT_STREQ(hs::to_string(hs::SystemKind::WindServeNoSplit),
                 "WindServe-no-split");
    EXPECT_STREQ(hs::to_string(hs::SystemKind::Vllm), "vLLM");
}
