/**
 * @file
 * Unit tests for the Global Scheduler's Profiler (Eq. 1 regression).
 */
#include <gtest/gtest.h>

#include "core/profiler.hpp"
#include "core/windserve_system.hpp"
#include "hw/gpu_spec.hpp"
#include "workload/trace.hpp"

namespace core = windserve::core;
namespace md = windserve::model;
namespace sim = windserve::sim;
namespace wl = windserve::workload;

namespace {

md::CostModel
cost_13b()
{
    return md::CostModel(md::ModelSpec::opt_13b(),
                         windserve::hw::GpuSpec::a800_80g(), {2, 1});
}

} // namespace

TEST(Fit, QuadraticRecoversExactCoefficients)
{
    std::vector<double> x, y;
    for (double xi : {1.0, 2.0, 5.0, 10.0, 20.0}) {
        x.push_back(xi);
        y.push_back(3.0 * xi + 0.5 * xi * xi + 7.0);
    }
    auto fit = core::fit_quadratic(x, y);
    EXPECT_NEAR(fit.a, 3.0, 1e-9);
    EXPECT_NEAR(fit.b, 0.5, 1e-9);
    EXPECT_NEAR(fit.c, 7.0, 1e-9);
}

TEST(Fit, RejectsTooFewSamples)
{
    std::vector<double> x{1.0, 2.0}, y{1.0, 2.0};
    EXPECT_THROW(core::fit_quadratic(x, y), std::invalid_argument);
}

TEST(Fit, RobustToNoise)
{
    sim::Rng rng(4);
    std::vector<double> x, y;
    for (int i = 1; i <= 200; ++i) {
        double xi = 20.0 * i;
        x.push_back(xi);
        y.push_back((2e-4 * xi + 1e-8 * xi * xi + 0.006) *
                    rng.lognormal(0.0, 0.05));
    }
    auto fit = core::fit_quadratic(x, y);
    EXPECT_NEAR(fit.a, 2e-4, 2e-5);
    EXPECT_NEAR(fit.b, 1e-8, 2e-9);
}

TEST(Profiler, UncalibratedThrows)
{
    core::Profiler p;
    EXPECT_THROW(p.predict_prefill(100.0), std::logic_error);
}

TEST(Profiler, OfflineCalibrationTracksCostModel)
{
    core::Profiler p;
    auto cost = cost_13b();
    sim::Rng rng(9);
    p.calibrate_offline(cost, rng, 0.02);
    for (double n : {300.0, 900.0, 1700.0, 3500.0}) {
        EXPECT_NEAR(p.predict_prefill(n), cost.prefill_time(n),
                    0.1 * cost.prefill_time(n));
    }
}

TEST(Profiler, NoiselessCalibrationIsExact)
{
    core::Profiler p;
    auto cost = cost_13b();
    sim::Rng rng(9);
    p.calibrate_offline(cost, rng, 0.0);
    // Small probe sizes are weight-IO bound (not purely quadratic), so
    // the fit carries a small systematic residual even without noise.
    EXPECT_NEAR(p.predict_prefill(1000.0), cost.prefill_time(1000.0),
                0.005 * cost.prefill_time(1000.0));
}

TEST(Profiler, OnlineObservationsRefineFit)
{
    core::Profiler p;
    auto cost = cost_13b();
    sim::Rng rng(9);
    p.calibrate_offline(cost, rng, 0.0);
    // Feed observations from a DIFFERENT (slower) machine; the fit
    // should drift toward the new reality once a refit runs (every 64
    // observations).
    for (int i = 0; i < 448; ++i) {
        double n = 200.0 + 10.0 * i;
        p.observe_prefill(n, 2.0 * cost.prefill_time(n));
    }
    double pred = p.predict_prefill(2000.0);
    EXPECT_GT(pred, 1.5 * cost.prefill_time(2000.0));
}

TEST(Profiler, PredictTtftAddsInflightRemaining)
{
    core::Profiler p;
    auto cost = cost_13b();
    sim::Rng rng(9);
    p.calibrate_offline(cost, rng, 0.0);
    double base = p.predict_ttft(1000.0, 500.0, 0.0);
    double with_inflight = p.predict_ttft(1000.0, 500.0, 0.3);
    EXPECT_NEAR(with_inflight - base, 0.3, 1e-9);
    // Queue tokens and new tokens are pooled (paper: cumulative count).
    EXPECT_DOUBLE_EQ(base, p.predict_prefill(1500.0));
}

TEST(Profiler, SampleCountsTracked)
{
    core::Profiler p;
    auto cost = cost_13b();
    sim::Rng rng(9);
    p.calibrate_offline(cost, rng, 0.0, 2);
    EXPECT_EQ(p.prefill_samples(), 18u); // 9 probe sizes x 2 samples
    auto before = p.prefill_samples();
    p.observe_prefill(100.0, 0.05);
    EXPECT_EQ(p.prefill_samples(), before + 1);
}

TEST(Profiler, DegenerateOnlineSamplesKeepOldFit)
{
    core::Profiler p;
    auto cost = cost_13b();
    // A refit over all-identical N is singular; the profiler must keep
    // its previous (here: absent) fit rather than throw out of the
    // observation or publish a garbage fit.
    for (int i = 0; i < 64; ++i)
        EXPECT_NO_THROW(p.observe_prefill(512.0, cost.prefill_time(512.0)));
    EXPECT_EQ(p.prefill_samples(), 64u);
    EXPECT_THROW(p.predict_prefill(1000.0), std::logic_error);
}

TEST(Profiler, PredictionsNeverNegative)
{
    core::Profiler p;
    auto cost = cost_13b();
    sim::Rng rng(9);
    p.calibrate_offline(cost, rng, 0.0);
    EXPECT_GE(p.predict_prefill(0.0), 0.0);
}

// Pins the Eq. (1) fit a default WindServe pod (seed 7) reads, right
// after its offline calibration and again after online refits from a
// 200-request ShareGPT run. Any change to the calibration draws, the
// probe grid or the refit cadence moves these bits.
TEST(Profiler, DefaultPodCalibrationIsPinned)
{
    core::WindServeConfig cfg;
    core::WindServeSystem sys(cfg);
    core::Profiler &p = sys.pod(0).prefill_profiler();
    EXPECT_EQ(p.predict_prefill(128.0), 0x1.38af451788fcap-6);
    EXPECT_EQ(p.predict_prefill(1000.0), 0x1.6ec7d80871962p-4);
    EXPECT_EQ(p.predict_prefill(4096.0), 0x1.8ea9f35399808p-2);

    wl::TraceConfig tc;
    tc.dataset = wl::DatasetConfig::sharegpt();
    tc.arrival.rate = 8.0;
    tc.num_requests = 200;
    tc.seed = 11;
    auto rr = sys.run(wl::TraceBuilder(tc).build());
    ASSERT_EQ(rr.metrics.num_finished, 200u);
    // 27 calibration samples plus one per pure prefill pass: enough
    // passes for two online refits.
    EXPECT_EQ(p.prefill_samples(), 188u);
    EXPECT_EQ(p.predict_prefill(128.0), 0x1.1cee0045e50ccp-6);
    EXPECT_EQ(p.predict_prefill(1000.0), 0x1.730e4c0f30a55p-4);
    EXPECT_EQ(p.predict_prefill(4096.0), 0x1.8e3684c459ffp-2);
}
