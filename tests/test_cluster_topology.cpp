/**
 * @file
 * Multi-node cluster tests: inter-node route selection on the
 * generalized hw::Topology, the SharedChannel processor-sharing
 * congestion model, the sharded ClusterServeSystem's degenerate and
 * chaos behavior, and a golden metrics snapshot of a 2-node run
 * (tests/golden/cluster_metrics.txt, regenerate with
 * WS_UPDATE_GOLDEN=1).
 *
 * Registered under the `scale` ctest label (also included in the tsan
 * and asan-ubsan preset filters).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "windserve/windserve.hpp"

using namespace windserve;
namespace hs = harness;

// ---------------------------------------------------------------------
// Topology: inter-node routes
// ---------------------------------------------------------------------

TEST(ClusterTopology, CrossNodeLinksClassifyAsInterNode)
{
    hw::TopologyConfig cfg;
    cfg.num_nodes = 2;
    hw::Topology topo(cfg);
    ASSERT_EQ(topo.num_gpus(), 16u);
    EXPECT_EQ(topo.node_of(0), 0u);
    EXPECT_EQ(topo.node_of(8), 1u);
    EXPECT_EQ(topo.local_id(11), 3u);
    // Cross-node pairs ride the NIC; intra-node pairs keep the Fig. 9
    // classification regardless of which node they live on.
    EXPECT_EQ(topo.classify(0, 8), hw::LinkType::InterNode);
    EXPECT_EQ(topo.classify(7, 15), hw::LinkType::InterNode);
    EXPECT_EQ(topo.classify(8, 9), hw::LinkType::NVLink);
    EXPECT_EQ(topo.classify(9, 10), hw::LinkType::PCIeSwitch);
    EXPECT_EQ(topo.classify(11, 12), hw::LinkType::PCIeRC);
    EXPECT_EQ(topo.classify(12, 12), hw::LinkType::Loopback);
}

TEST(ClusterTopology, InterNodeLinkDefaultsAndOverrides)
{
    hw::TopologyConfig cfg;
    cfg.num_nodes = 3;
    cfg.inter_node_links.push_back({0, 2, hw::gb(10.0), 5e-5});
    hw::Topology topo(cfg);
    // Unlisted pair gets the default NIC parameters.
    hw::Link d = topo.inter_node_link(0, 1);
    EXPECT_EQ(d.type, hw::LinkType::InterNode);
    EXPECT_DOUBLE_EQ(d.bandwidth, cfg.nic_bw);
    EXPECT_DOUBLE_EQ(d.latency, cfg.nic_latency);
    // The override applies to both orders of the pair.
    EXPECT_DOUBLE_EQ(topo.inter_node_link(0, 2).bandwidth, hw::gb(10.0));
    EXPECT_DOUBLE_EQ(topo.inter_node_link(2, 0).bandwidth, hw::gb(10.0));
    EXPECT_DOUBLE_EQ(topo.inter_node_link(2, 0).latency, 5e-5);
    // The GPU-level route agrees with the node-level one.
    hw::Link g = topo.link(0, 2 * topo.gpus_per_node());
    EXPECT_EQ(g.type, hw::LinkType::InterNode);
    EXPECT_DOUBLE_EQ(g.bandwidth, hw::gb(10.0));
}

TEST(ClusterTopology, DegenerateRoutesThrow)
{
    hw::TopologyConfig cfg;
    cfg.num_nodes = 2;
    hw::Topology topo(cfg);
    // Self-transfer is not an inter-node route.
    EXPECT_THROW(topo.inter_node_link(1, 1), std::invalid_argument);
    // Unknown node.
    EXPECT_THROW(topo.inter_node_link(0, 2), std::out_of_range);
}

TEST(ClusterTopology, RejectsInvalidInterNodeConfigs)
{
    {
        hw::TopologyConfig cfg; // zero-width link
        cfg.num_nodes = 2;
        cfg.inter_node_links.push_back({0, 1, 0.0, 1e-5});
        EXPECT_THROW(hw::Topology{cfg}, std::invalid_argument);
    }
    {
        hw::TopologyConfig cfg; // negative latency
        cfg.num_nodes = 2;
        cfg.inter_node_links.push_back({0, 1, hw::gb(10.0), -1e-6});
        EXPECT_THROW(hw::Topology{cfg}, std::invalid_argument);
    }
    {
        hw::TopologyConfig cfg; // self link
        cfg.num_nodes = 2;
        cfg.inter_node_links.push_back({1, 1, hw::gb(10.0), 1e-5});
        EXPECT_THROW(hw::Topology{cfg}, std::invalid_argument);
    }
    {
        hw::TopologyConfig cfg; // link names a node outside the cluster
        cfg.num_nodes = 2;
        cfg.inter_node_links.push_back({0, 2, hw::gb(10.0), 1e-5});
        EXPECT_THROW(hw::Topology{cfg}, std::invalid_argument);
    }
    {
        hw::TopologyConfig cfg; // zero nodes
        cfg.num_nodes = 0;
        EXPECT_THROW(hw::Topology{cfg}, std::invalid_argument);
    }
}

TEST(ClusterTopology, SingleNodeReducesToLegacyBehavior)
{
    hw::Topology legacy; // historical default: one 8-GPU node
    hw::TopologyConfig cfg;
    cfg.num_nodes = 1;
    hw::Topology one(cfg);
    ASSERT_EQ(one.num_gpus(), legacy.num_gpus());
    for (hw::GpuId a = 0; a < legacy.num_gpus(); ++a) {
        EXPECT_EQ(one.node_of(a), 0u);
        EXPECT_EQ(one.local_id(a), a);
        for (hw::GpuId b = 0; b < legacy.num_gpus(); ++b) {
            EXPECT_EQ(one.classify(a, b), legacy.classify(a, b));
            EXPECT_DOUBLE_EQ(one.link(a, b).bandwidth,
                             legacy.link(a, b).bandwidth);
            EXPECT_DOUBLE_EQ(one.link(a, b).latency,
                             legacy.link(a, b).latency);
        }
    }
    // There is no other node to route to.
    EXPECT_THROW(one.inter_node_link(0, 1), std::out_of_range);
}

// ---------------------------------------------------------------------
// SharedChannel: processor-sharing congestion math
// ---------------------------------------------------------------------

namespace {
constexpr double kBw = 1e9;  // 1 GB/s: round numbers in the math below
constexpr double kLat = 1e-3;

hw::Link
nic_link()
{
    return hw::Link{hw::LinkType::InterNode, kBw, kLat};
}
} // namespace

TEST(SharedChannel, SingleTransferMatchesChannelServiceTime)
{
    sim::Simulator sim;
    hw::SharedChannel ch(sim, nic_link());
    double done = -1.0;
    ch.submit(2e9, [&] { done = sim.now(); }); // 2 GB -> 2 s drain
    sim.run_until(10.0);
    EXPECT_NEAR(done, 2.0 + kLat, 1e-12);
    EXPECT_EQ(ch.completed(), 1u);
    EXPECT_FALSE(ch.busy());
}

TEST(SharedChannel, ConcurrentTransfersShareBandwidth)
{
    sim::Simulator sim;
    hw::SharedChannel ch(sim, nic_link());
    // Two equal transfers submitted together: each drains at bw/2, so
    // both finish at 2x the solo drain time (the fluid model's defining
    // property), plus the latency tail.
    double a = -1.0, b = -1.0;
    ch.submit(1e9, [&] { a = sim.now(); });
    ch.submit(1e9, [&] { b = sim.now(); });
    EXPECT_EQ(ch.inflight(), 2u);
    EXPECT_NEAR(ch.current_share(), kBw / 2.0, 1e-3);
    sim.run_until(10.0);
    EXPECT_NEAR(a, 2.0 + kLat, 1e-9);
    EXPECT_NEAR(b, 2.0 + kLat, 1e-9);
}

TEST(SharedChannel, StaggeredArrivalSlowsTheFirstTransfer)
{
    sim::Simulator sim;
    hw::SharedChannel ch(sim, nic_link());
    // T0: 2 GB starts alone. At t=1 s half is drained; a second 0.5 GB
    // transfer arrives and the remaining 1 GB shares the link:
    //   t in [1, 2]: both drain 0.5 GB (0.5 GB/s each) -> B done at 2,
    //   t in [2, 2.5]: A drains its last 0.5 GB alone   -> A done at 2.5.
    double a = -1.0, b = -1.0;
    ch.submit(2e9, [&] { a = sim.now(); });
    sim.schedule_at(1.0, [&] { ch.submit(0.5e9, [&] { b = sim.now(); }); });
    sim.run_until(10.0);
    EXPECT_NEAR(b, 2.0 + kLat, 1e-9);
    EXPECT_NEAR(a, 2.5 + kLat, 1e-9);
}

TEST(SharedChannel, DrainedTransferLeavesTheDenominator)
{
    sim::Simulator sim;
    hw::SharedChannel ch(sim, nic_link());
    // A zero-byte transfer occupies a latency slot but never consumes
    // bandwidth: the real transfer drains at the full rate throughout.
    double a = -1.0, b = -1.0;
    ch.submit(0.0, [&] { a = sim.now(); });
    ch.submit(1e9, [&] { b = sim.now(); });
    sim.run_until(10.0);
    EXPECT_NEAR(a, kLat, 1e-12);
    EXPECT_NEAR(b, 1.0 + kLat, 1e-9);
}

TEST(SharedChannel, RateFactorZeroStallsAndResumes)
{
    sim::Simulator sim;
    hw::SharedChannel ch(sim, nic_link());
    double done = -1.0;
    ch.submit(1e9, [&] { done = sim.now(); });
    sim.schedule_at(0.5, [&] { ch.set_rate_factor(0.0); });
    sim.schedule_at(2.5, [&] { ch.set_rate_factor(1.0); });
    sim.run_until(10.0);
    // 0.5 s of drain, a 2 s stall, then the remaining 0.5 s + latency.
    EXPECT_NEAR(done, 3.0 + kLat, 1e-9);
    EXPECT_EQ(ch.completed(), 1u);
}

TEST(SharedChannel, SimultaneousCompletionsFireInSubmissionOrder)
{
    sim::Simulator sim;
    hw::SharedChannel ch(sim, nic_link());
    std::vector<int> order;
    ch.submit(1e9, [&] { order.push_back(0); });
    ch.submit(1e9, [&] { order.push_back(1); });
    ch.submit(1e9, [&] { order.push_back(2); });
    sim.run_until(10.0);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SharedChannel, RejectsZeroWidthLink)
{
    sim::Simulator sim;
    EXPECT_THROW(
        hw::SharedChannel(sim, hw::Link{hw::LinkType::InterNode, 0.0, 1e-5}),
        std::invalid_argument);
    EXPECT_THROW(hw::SharedChannel(
                     sim, hw::Link{hw::LinkType::InterNode, -1.0, 1e-5}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// ClusterServeSystem: sharded scheduling
// ---------------------------------------------------------------------

namespace {

core::ClusterConfig
small_cluster(std::size_t nodes, std::size_t pods_per_node)
{
    core::ClusterConfig cc;
    cc.num_nodes = nodes;
    cc.pods_per_node = pods_per_node;
    cc.pod.seed = 20250808;
    return cc;
}

std::vector<workload::Request>
small_trace(std::size_t n, double rate, std::uint64_t seed)
{
    workload::TraceConfig tc;
    tc.dataset = workload::DatasetConfig::sharegpt();
    tc.arrival.kind = workload::ArrivalKind::Poisson;
    tc.arrival.rate = rate;
    tc.num_requests = n;
    tc.seed = seed;
    return workload::TraceBuilder(tc).build();
}

} // namespace

TEST(ClusterSystem, RoutesAcrossPodsAndFinishesEverything)
{
    core::ClusterServeSystem sys(small_cluster(2, 2));
    ASSERT_EQ(sys.num_replicas(), 4u);
    EXPECT_EQ(sys.num_gpus(), 16u);
    engine::RunOptions opts;
    opts.horizon = 3600.0;
    auto run = sys.run(small_trace(200, 8.0, 7), opts);
    EXPECT_EQ(run.metrics.num_finished, 200u);
    // The balancer touched every pod.
    EXPECT_EQ(sys.balancer().routed(), 200u);
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < sys.num_replicas(); ++k)
        total += sys.pod(k).coordinator().dispatches();
    EXPECT_EQ(total, sys.total_dispatches());
    EXPECT_GT(total, 0u);
}

// ---------------------------------------------------------------------
// ClusterConfig validation: bad fields throw, naming the field
// ---------------------------------------------------------------------

namespace {

void
expect_rejected(const core::ClusterConfig &cc, const std::string &field)
{
    try {
        core::ClusterServeSystem sys(cc);
        ADD_FAILURE() << "accepted a bad " << field;
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

} // namespace

TEST(ClusterConfigCheck, RejectsLowwaterAboveHighwater)
{
    core::ClusterConfig cc = small_cluster(2, 1);
    cc.offload_lowwater = 0.9;
    cc.offload_highwater = 0.1;
    expect_rejected(cc, "offload_lowwater");
}

TEST(ClusterConfigCheck, RejectsHighwaterOutsideUnitInterval)
{
    core::ClusterConfig cc = small_cluster(2, 1);
    cc.offload_highwater = 1.7;
    expect_rejected(cc, "offload_highwater");
}

TEST(ClusterConfigCheck, RejectsLowwaterOutsideUnitInterval)
{
    core::ClusterConfig cc = small_cluster(2, 1);
    cc.offload_lowwater = -0.1;
    expect_rejected(cc, "offload_lowwater");
}

TEST(ClusterSystem, SixtyFourGpuEightPodChaosRunPassesAudit)
{
    // The acceptance run: 8 pods x 8 GPUs = 64 GPUs, full chaos
    // schedule (instance crashes, link outages, stragglers, node
    // crashes) under the fail-fast auditor. No invariant violations
    // and every request accounted for.
    hs::ExperimentConfig ec;
    ec.scenario = hs::Scenario::opt13b_sharegpt();
    ec.scenario.prefill_parallelism = {4, 1};
    ec.scenario.decode_parallelism = {4, 1};
    ec.system = hs::SystemKind::WindServe;
    ec.num_nodes = 4;
    ec.pods_per_node = 2;
    ec.per_gpu_rate = 1.0;
    ec.num_requests = 600;
    ec.seed = 4242;
    ec.audit = true;
    fault::FaultConfig fc;
    fc.seed = 4242;
    fc.warmup = 5.0;
    fc.crash_mtbf = 40.0;
    fc.mean_repair = 5.0;
    fc.link_mtbf = 60.0;
    fc.mean_outage = 2.0;
    fc.straggler_mtbf = 80.0;
    fc.mean_straggler = 8.0;
    fc.node_mtbf = 120.0;
    fc.mean_node_repair = 6.0;
    ec.faults = fc;
    auto r = hs::run_experiment(ec);
    EXPECT_EQ(r.audit_violations, 0u);
    EXPECT_GT(r.audit_events, 0u);
    EXPECT_EQ(r.metrics.num_finished + r.metrics.num_unfinished, 600u);
    EXPECT_GT(r.metrics.num_finished, 0u);
}

TEST(ClusterSystem, CrossPodOffloadTriggersUnderMemoryPressure)
{
    // Starve one pod's KV capacity so prefill completions spill to the
    // other pod over the NIC.
    hs::ExperimentConfig ec;
    ec.system = hs::SystemKind::WindServe;
    ec.num_nodes = 2;
    ec.pods_per_node = 1;
    ec.per_gpu_rate = 2.5;
    ec.num_requests = 300;
    ec.seed = 77;
    ec.audit = true;
    ec.kv_capacity_tokens_override = 2600;
    auto system = hs::make_system(ec);
    auto *cs = dynamic_cast<core::ClusterServeSystem *>(system.get());
    ASSERT_NE(cs, nullptr);
    engine::RunOptions opts;
    opts.horizon = ec.horizon;
    audit::AuditConfig ac;
    ac.repro_seed = ec.seed;
    opts.audit = ac;
    auto run = system->run(hs::make_trace(ec), opts);
    EXPECT_EQ(system->audit()->total_violations(), 0u);
    EXPECT_GT(cs->cross_offloads(), 0u);
    EXPECT_EQ(run.metrics.num_finished + run.metrics.num_unfinished, 300u);
}

TEST(ClusterSystem, BalancerDrainsAfterFaultFreeOffloadRun)
{
    // Every admission, cross-pod re-homing and retirement goes through
    // the dense home table: once all requests finish, every pod's
    // outstanding load is back to zero.
    hs::ExperimentConfig ec;
    ec.system = hs::SystemKind::WindServe;
    ec.num_nodes = 4;
    ec.pods_per_node = 2;
    ec.per_gpu_rate = 2.5;
    ec.num_requests = 400;
    ec.seed = 77;
    ec.kv_capacity_tokens_override = 2600;
    auto system = hs::make_system(ec);
    auto *cs = dynamic_cast<core::ClusterServeSystem *>(system.get());
    ASSERT_NE(cs, nullptr);
    ASSERT_EQ(cs->num_replicas(), 8u);
    engine::RunOptions opts;
    opts.horizon = ec.horizon;
    auto run = system->run(hs::make_trace(ec), opts);
    ASSERT_EQ(run.metrics.num_finished, 400u);
    EXPECT_GT(cs->cross_offloads(), 0u);
    EXPECT_EQ(cs->balancer().routed(), 400u);
    for (std::size_t k = 0; k < cs->num_replicas(); ++k)
        EXPECT_EQ(cs->balancer().load(k), 0.0) << "pod " << k;
}

TEST(ClusterSystem, PodCountersSumAcrossPods)
{
    // The cluster goldens all pin `reschedules 0`; this run puts two
    // pods under enough decode pressure that both reschedule, so the
    // cluster-wide counters are checked against real per-pod values.
    hs::ExperimentConfig ec;
    ec.scenario = hs::Scenario::opt13b_sharegpt_small_decode();
    ec.system = hs::SystemKind::WindServe;
    ec.num_nodes = 1;
    ec.pods_per_node = 2;
    ec.per_gpu_rate = 2.0;
    ec.num_requests = 1200;
    ec.horizon = 36000.0;
    auto system = hs::make_system(ec);
    auto *cs = dynamic_cast<core::ClusterServeSystem *>(system.get());
    ASSERT_NE(cs, nullptr);
    ASSERT_EQ(cs->num_replicas(), 2u);
    engine::RunOptions opts;
    opts.horizon = ec.horizon;
    auto run = system->run(hs::make_trace(ec), opts);
    ASSERT_EQ(run.metrics.num_finished, 1200u);
    std::uint64_t dispatches = 0, reschedules = 0, migrations = 0,
                  backups = 0;
    for (std::size_t k = 0; k < cs->num_replicas(); ++k) {
        core::Pod &pod = cs->pod(k);
        EXPECT_GT(pod.coordinator().reschedules(), 0u) << "pod " << k;
        dispatches += pod.coordinator().dispatches();
        reschedules += pod.coordinator().reschedules();
        migrations += pod.migration().completed();
        backups += pod.backup().backups_taken();
    }
    EXPECT_EQ(cs->total_dispatches(), dispatches);
    EXPECT_EQ(cs->total_reschedules(), reschedules);
    EXPECT_EQ(cs->total_migrations(), migrations);
    EXPECT_EQ(cs->total_backups(), backups);
}

// ---------------------------------------------------------------------
// Golden snapshot of a 2-node run
// ---------------------------------------------------------------------

namespace {

constexpr double kRelTol = 0.05; // 5%

std::string
golden_path()
{
    return std::string(WS_GOLDEN_DIR) + "/cluster_metrics.txt";
}

std::vector<std::pair<std::string, double>>
cluster_snapshot()
{
    hs::ExperimentConfig ec;
    ec.system = hs::SystemKind::WindServe;
    ec.num_nodes = 2;
    ec.pods_per_node = 2;
    ec.per_gpu_rate = 1.5;
    ec.num_requests = 400;
    ec.seed = 31337;
    ec.audit = true;
    auto r = hs::run_experiment(ec);
    EXPECT_EQ(r.audit_violations, 0u);
    EXPECT_EQ(r.metrics.num_finished + r.metrics.num_unfinished, 400u);
    const auto &m = r.metrics;
    return {
        {"num_finished", static_cast<double>(m.num_finished)},
        {"ttft_mean", m.ttft.mean()},
        {"ttft_p50", m.ttft.p50()},
        {"ttft_p99", m.ttft.p99()},
        {"tpot_mean", m.tpot.mean()},
        {"tpot_p99", m.tpot.p99()},
        {"e2e_mean", m.e2e.mean()},
        {"e2e_p99", m.e2e.p99()},
        {"slo_attainment", m.slo_attainment},
        {"dispatches", static_cast<double>(r.dispatches)},
    };
}

std::map<std::string, double>
load_golden(const std::string &path)
{
    std::ifstream in(path);
    std::map<std::string, double> golden;
    std::string key;
    double value;
    while (in >> key >> value)
        golden[key] = value;
    return golden;
}

} // namespace

TEST(ClusterGolden, TwoNodeRunMatchesSnapshot)
{
    auto snap = cluster_snapshot();

    if (std::getenv("WS_UPDATE_GOLDEN")) {
        std::ofstream out(golden_path());
        ASSERT_TRUE(out) << "cannot write " << golden_path();
        out.precision(17);
        for (const auto &[key, value] : snap)
            out << key << " " << value << "\n";
        GTEST_SKIP() << "golden file regenerated: " << golden_path();
    }

    auto golden = load_golden(golden_path());
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << golden_path()
        << " — regenerate with WS_UPDATE_GOLDEN=1";
    ASSERT_EQ(golden.size(), snap.size()) << "golden key set drifted";

    for (const auto &[key, value] : snap) {
        ASSERT_TRUE(golden.count(key)) << "golden misses key " << key;
        double want = golden[key];
        double tol = kRelTol * std::max(std::abs(want), 1e-9);
        EXPECT_NEAR(value, want, tol)
            << key << " drifted: got " << value << ", golden " << want
            << " (retune intentionally with WS_UPDATE_GOLDEN=1)";
    }
}
