/**
 * @file
 * Property-based tests: invariants that must hold for EVERY serving
 * system at EVERY load level, swept with parameterized gtest.
 */
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "harness/experiment.hpp"

namespace hs = windserve::harness;
namespace wl = windserve::workload;

namespace {

struct PropertyParam {
    const char *scenario;
    hs::SystemKind system;
    double per_gpu_rate;
    /** Above 1, the deployment spans this many nodes of two pods each
     *  (WindServe pods, DistServe pairs, or vLLM engines to match). */
    std::size_t num_nodes = 1;
};

std::ostream &
operator<<(std::ostream &os, const PropertyParam &p)
{
    os << p.scenario << "/" << hs::to_string(p.system) << "@"
       << p.per_gpu_rate;
    if (p.num_nodes > 1)
        os << "x" << p.num_nodes << "nodes";
    return os;
}

/** A gtest-safe name: @p s with every non-alphanumeric mapped to '_',
 *  and a `_nodes<N>` suffix for a multi-node cell. */
std::string
case_name(std::string s, const PropertyParam &p)
{
    if (p.num_nodes > 1)
        s += "_nodes" + std::to_string(p.num_nodes);
    for (auto &c : s)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

hs::Scenario
scenario_by_name(const std::string &name)
{
    if (name == "opt13b")
        return hs::Scenario::opt13b_sharegpt();
    if (name == "llama2_13b")
        return hs::Scenario::llama2_13b_longbench();
    if (name == "opt66b")
        return hs::Scenario::opt66b_sharegpt();
    return hs::Scenario::llama2_70b_longbench();
}

class ServingInvariants : public ::testing::TestWithParam<PropertyParam>
{
  protected:
    void SetUp() override
    {
        PropertyParam p = GetParam();
        cfg_.scenario = scenario_by_name(p.scenario);
        cfg_.system = p.system;
        cfg_.per_gpu_rate = p.per_gpu_rate;
        cfg_.num_nodes = p.num_nodes;
        cfg_.pods_per_node = p.num_nodes > 1 ? 2 : 1;
        cfg_.num_requests = 250;
        cfg_.seed = 1337;
        cfg_.horizon = 36000.0;
        system_ = hs::make_system(cfg_);
        trace_ = hs::make_trace(cfg_);
        result_ = system_->run(trace_, cfg_.scenario.slo, cfg_.horizon);
    }

    const std::vector<wl::Request> &requests() const
    {
        return result_.requests;
    }

    hs::ExperimentConfig cfg_;
    std::unique_ptr<windserve::engine::ServingSystem> system_;
    std::vector<wl::Request> trace_;
    windserve::engine::RunResult result_;
};

} // namespace

TEST_P(ServingInvariants, EveryRequestFinishes)
{
    for (const auto &r : requests()) {
        EXPECT_TRUE(r.finished())
            << "request " << r.id << " stuck in " << to_string(r.state);
    }
}

TEST_P(ServingInvariants, TimestampsAreMonotone)
{
    for (const auto &r : requests()) {
        if (!r.finished())
            continue;
        EXPECT_GE(r.prefill_enqueue_time, r.arrival_time);
        if (r.prefill_start_time != wl::kNoTime) {
            EXPECT_GE(r.prefill_start_time, r.prefill_enqueue_time);
        }
        EXPECT_GE(r.first_token_time, r.arrival_time);
        if (r.decode_enqueue_time != wl::kNoTime) {
            EXPECT_GE(r.decode_enqueue_time, r.first_token_time - 1e-9);
        }
        if (r.decode_start_time != wl::kNoTime) {
            EXPECT_GE(r.decode_start_time, r.decode_enqueue_time);
        }
        EXPECT_GE(r.finish_time, r.first_token_time);
    }
}

TEST_P(ServingInvariants, TokenConservation)
{
    for (const auto &r : requests()) {
        if (!r.finished())
            continue;
        EXPECT_EQ(r.generated, r.output_tokens);
        EXPECT_EQ(r.prefilled, r.prompt_tokens);
    }
}

TEST_P(ServingInvariants, LatenciesNonNegativeAndFinite)
{
    for (const auto &r : requests()) {
        if (!r.finished())
            continue;
        EXPECT_GE(r.ttft(), 0.0);
        EXPECT_TRUE(std::isfinite(r.ttft()));
        if (r.output_tokens > 1) {
            EXPECT_GT(r.tpot(), 0.0);
            EXPECT_TRUE(std::isfinite(r.tpot()));
        }
    }
}

TEST_P(ServingInvariants, MetricsWellFormed)
{
    const auto &m = result_.metrics;
    EXPECT_GE(m.slo_attainment, 0.0);
    EXPECT_LE(m.slo_attainment, 1.0);
    EXPECT_LE(m.slo_attainment, m.ttft_attainment + 1e-12);
    EXPECT_LE(m.slo_attainment, m.tpot_attainment + 1e-12);
    EXPECT_GE(m.prefill_compute_util, 0.0);
    EXPECT_LE(m.prefill_compute_util, 1.0);
    EXPECT_GE(m.decode_bandwidth_util, 0.0);
    EXPECT_LE(m.decode_bandwidth_util, 1.0);
    EXPECT_EQ(m.num_requests, cfg_.num_requests);
}

TEST_P(ServingInvariants, AllKvBlocksReleasedAtEnd)
{
    // Once every request finished, no instance may still hold blocks.
    bool all_done = true;
    for (const auto &r : requests())
        all_done &= r.finished();
    if (!all_done)
        GTEST_SKIP() << "not all requests finished within horizon";
    for (std::size_t i = 0; i < system_->num_replicas(); ++i) {
        EXPECT_EQ(system_->prefill(i).blocks().used_blocks(), 0u);
        EXPECT_EQ(system_->decode(i).blocks().used_blocks(), 0u);
    }
}

TEST_P(ServingInvariants, ReplayIsDeterministic)
{
    auto second = hs::make_system(cfg_);
    auto rerun = second->run(trace_, cfg_.scenario.slo, cfg_.horizon);
    const auto &a = requests();
    const auto &b = rerun.requests;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].first_token_time, b[i].first_token_time);
        EXPECT_DOUBLE_EQ(a[i].finish_time, b[i].finish_time);
        EXPECT_EQ(a[i].swap_outs, b[i].swap_outs);
        EXPECT_EQ(a[i].migrations, b[i].migrations);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Opt13bShareGpt, ServingInvariants,
    ::testing::Values(
        PropertyParam{"opt13b", hs::SystemKind::WindServe, 1.0},
        PropertyParam{"opt13b", hs::SystemKind::WindServe, 4.0},
        PropertyParam{"opt13b", hs::SystemKind::WindServe, 6.0},
        PropertyParam{"opt13b", hs::SystemKind::DistServe, 1.0},
        PropertyParam{"opt13b", hs::SystemKind::DistServe, 4.0},
        PropertyParam{"opt13b", hs::SystemKind::DistServe, 6.0},
        PropertyParam{"opt13b", hs::SystemKind::Vllm, 1.0},
        PropertyParam{"opt13b", hs::SystemKind::Vllm, 4.0},
        PropertyParam{"opt13b", hs::SystemKind::WindServeNoSplit, 5.0},
        PropertyParam{"opt13b", hs::SystemKind::WindServeNoResche, 5.0},
        PropertyParam{"opt13b", hs::SystemKind::WindServeNoDispatch,
                      3.0},
        PropertyParam{"opt13b", hs::SystemKind::WindServe, 4.0, 2},
        PropertyParam{"opt13b", hs::SystemKind::DistServe, 4.0, 2},
        PropertyParam{"opt13b", hs::SystemKind::Vllm, 4.0, 2}),
    [](const ::testing::TestParamInfo<PropertyParam> &info) {
        std::ostringstream os;
        os << hs::to_string(info.param.system) << "_rate"
           << static_cast<int>(info.param.per_gpu_rate * 10);
        return case_name(os.str(), info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    Llama13bLongBench, ServingInvariants,
    ::testing::Values(
        PropertyParam{"llama2_13b", hs::SystemKind::WindServe, 0.5},
        PropertyParam{"llama2_13b", hs::SystemKind::WindServe, 1.25},
        PropertyParam{"llama2_13b", hs::SystemKind::DistServe, 0.5},
        PropertyParam{"llama2_13b", hs::SystemKind::Vllm, 0.5}),
    [](const ::testing::TestParamInfo<PropertyParam> &info) {
        std::ostringstream os;
        os << hs::to_string(info.param.system) << "_rate"
           << static_cast<int>(info.param.per_gpu_rate * 100);
        return case_name(os.str(), info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    BigModels, ServingInvariants,
    ::testing::Values(
        PropertyParam{"opt66b", hs::SystemKind::WindServe, 0.3},
        PropertyParam{"opt66b", hs::SystemKind::DistServe, 0.3},
        PropertyParam{"llama2_70b", hs::SystemKind::WindServe, 0.12},
        PropertyParam{"llama2_70b", hs::SystemKind::DistServe, 0.12}),
    [](const ::testing::TestParamInfo<PropertyParam> &info) {
        std::ostringstream os;
        os << info.param.scenario << "_"
           << hs::to_string(info.param.system);
        return case_name(os.str(), info.param);
    });
