/**
 * @file
 * Unit suite for the conservative-lookahead LP engine (sim::LpScheduler
 * + core::cluster_lookahead_floor): lookahead-floor derivation from
 * topology latencies, window-bound computation, the LP clock-advance
 * bound, cross-LP (time, seq) tie-break determinism, the zero-lookahead
 * fallback to lockstep pumping, the activity-driven engine (idle LPs
 * never run, LP heap keys stay exact under hub-phase schedules and
 * cancels, idle clocks read t0, a throwing run leaves no LP attached to
 * a dead scheduler), a chaos campaign that kills pods mid-offload, and
 * a 2-node golden snapshot.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster_system.hpp"
#include "harness/fuzz.hpp"
#include "hw/topology.hpp"
#include "simcore/lp.hpp"

namespace hs = windserve::harness;
using windserve::core::cluster_lookahead_floor;
using windserve::sim::LpScheduler;
using windserve::sim::SimTime;
using windserve::sim::Simulator;

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
} // namespace

// ---------------------------------------------------------------------
// Lookahead floor from topology latencies
// ---------------------------------------------------------------------

TEST(LookaheadFloor, MultiNodeDefaultIsNicLatency)
{
    windserve::hw::TopologyConfig tc;
    tc.num_nodes = 4;
    windserve::hw::Topology topo(tc);
    EXPECT_DOUBLE_EQ(cluster_lookahead_floor(topo), tc.nic_latency);
}

TEST(LookaheadFloor, PerPairLinkOverrideLowersTheFloor)
{
    windserve::hw::TopologyConfig tc;
    tc.num_nodes = 4;
    tc.inter_node_links.push_back({0, 1, 100e9, 5e-6});
    tc.inter_node_links.push_back({1, 2, 100e9, 80e-6});
    windserve::hw::Topology topo(tc);
    // The floor is the MINIMUM over the default NIC latency and every
    // per-pair override: a slower pair cannot raise it, a faster one
    // must lower it (conservative = no cross-LP interaction can land
    // earlier than the floor).
    EXPECT_DOUBLE_EQ(cluster_lookahead_floor(topo), 5e-6);
}

TEST(LookaheadFloor, SlowerOverrideDoesNotRaiseTheFloor)
{
    windserve::hw::TopologyConfig tc;
    tc.num_nodes = 2;
    tc.inter_node_links.push_back({0, 1, 100e9, 200e-6});
    windserve::hw::Topology topo(tc);
    EXPECT_DOUBLE_EQ(cluster_lookahead_floor(topo), tc.nic_latency);
}

TEST(LookaheadFloor, SingleNodeMultiPodUsesPcieRootComplex)
{
    windserve::hw::TopologyConfig tc;
    tc.num_nodes = 1;
    windserve::hw::Topology topo(tc);
    // Pods of one node exchange KV over the PCIe root complex: one hop
    // up, one hop down.
    EXPECT_DOUBLE_EQ(cluster_lookahead_floor(topo), 2 * tc.link_latency);
}

TEST(LookaheadFloor, ClusterSystemAdoptsTheFloorAsControlLatency)
{
    hs::ExperimentConfig ec;
    ec.system = hs::SystemKind::WindServe;
    ec.num_nodes = 2;
    ec.pods_per_node = 2;
    auto system = hs::make_system(ec);
    auto *cs =
        dynamic_cast<windserve::core::ClusterServeSystem *>(system.get());
    ASSERT_NE(cs, nullptr);
    windserve::hw::TopologyConfig tc = ec.scenario.topology;
    tc.num_nodes = 2;
    EXPECT_DOUBLE_EQ(cs->lookahead(),
                     cluster_lookahead_floor(windserve::hw::Topology(tc)));
}

// ---------------------------------------------------------------------
// Window-bound computation (the LP clock-advance bound)
// ---------------------------------------------------------------------

TEST(LpWindow, PlainWindowExtendsOneQuantum)
{
    auto w = LpScheduler::compute_window(1.0, 0.5, kInf, 100.0);
    EXPECT_DOUBLE_EQ(w.excl, 1.5);
    EXPECT_DOUBLE_EQ(w.incl, 1.0);
}

TEST(LpWindow, NeverRunsPastAPendingHubEvent)
{
    auto w = LpScheduler::compute_window(1.0, 0.5, 1.2, 100.0);
    EXPECT_DOUBLE_EQ(w.excl, 1.2);
    EXPECT_DOUBLE_EQ(w.incl, 1.0);
}

TEST(LpWindow, HorizonTruncatesInclusively)
{
    auto w = LpScheduler::compute_window(1.0, 0.5, kInf, 1.3);
    EXPECT_DOUBLE_EQ(w.excl, 1.3);
    EXPECT_DOUBLE_EQ(w.incl, 1.3);
}

TEST(LpWindow, ZeroQuantumDegeneratesToLockstep)
{
    // W = 0: the window still covers t0 itself (progress guarantee),
    // and nothing else — conservative sequential pumping.
    auto w = LpScheduler::compute_window(2.0, 0.0, kInf, 100.0);
    EXPECT_DOUBLE_EQ(w.excl, 2.0);
    EXPECT_DOUBLE_EQ(w.incl, 2.0);
}

// ---------------------------------------------------------------------
// LP clock-advance bound and cross-LP tie-break determinism
// ---------------------------------------------------------------------

// A hub event must never observe an LP clock past the hub's own
// timestamp, and an LP event past the hub event's time must not have
// fired yet — the conservative bound, observable at the hub phase.
TEST(LpSync, HubPhaseSeesParkedLpClocks)
{
    Simulator hub;
    Simulator lp0, lp1;
    LpScheduler::Config cfg;
    // A 1s quantum puts every event below into its own window.
    cfg.lookahead = 1.0;
    LpScheduler sched(hub, cfg);
    sched.add_lp(lp0);
    sched.add_lp(lp1);

    std::vector<std::string> order;
    lp0.schedule_at(0.5, [&] { order.push_back("lp0@0.5"); });
    lp0.schedule_at(5.0, [&] { order.push_back("lp0@5.0"); });
    lp1.schedule_at(3.0, [&] { order.push_back("lp1@3.0"); });
    hub.schedule_at(1.0, [&] {
        order.push_back("hub@1.0");
        EXPECT_TRUE(sched.in_hub_phase());
        // Both LPs are parked exactly at the hub timestamp: lp0's next
        // local event is at 5.0, lp1's at 3.0, so neither clock may
        // have passed 1.0 and neither future event may have fired.
        EXPECT_DOUBLE_EQ(lp0.now(), 1.0);
        EXPECT_DOUBLE_EQ(lp1.now(), 1.0);
    });

    SimTime end = sched.run_until(100.0);
    EXPECT_FALSE(sched.in_hub_phase());
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], "lp0@0.5");
    EXPECT_EQ(order[1], "hub@1.0");
    EXPECT_EQ(order[2], "lp1@3.0");
    EXPECT_EQ(order[3], "lp0@5.0");
    // Every clock settles on the global last-event time.
    EXPECT_DOUBLE_EQ(end, 5.0);
    EXPECT_DOUBLE_EQ(hub.now(), 5.0);
    EXPECT_DOUBLE_EQ(lp0.now(), 5.0);
    EXPECT_DOUBLE_EQ(lp1.now(), 5.0);
}

// Messages posted at the SAME timestamp from different LPs are
// delivered in (LP index, post order) — the heap's insertion-seq
// tie-break makes that a total order.
TEST(LpSync, SameTimeMessagesDeliverInLpIndexThenPostOrder)
{
    Simulator hub;
    Simulator lp0, lp1, lp2;
    LpScheduler::Config cfg;
    cfg.lookahead = 1.0;
    LpScheduler sched(hub, cfg);
    sched.add_lp(lp0);
    sched.add_lp(lp1);
    sched.add_lp(lp2);

    std::vector<std::string> order;
    auto sender = [&](Simulator &sim, std::size_t idx) {
        sim.schedule_at(0.25, [&, idx] {
            // Two messages per LP, all for the identical instant.
            sched.post(2.0, [&order, idx] {
                order.push_back("lp" + std::to_string(idx) + ".a");
            });
            sched.post(2.0, [&order, idx] {
                order.push_back("lp" + std::to_string(idx) + ".b");
            });
        });
    };
    // Register senders in reverse so delivery order provably comes
    // from the LP INDEX, not scheduling happenstance.
    sender(lp2, 2);
    sender(lp1, 1);
    sender(lp0, 0);

    sched.run_until(10.0);
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order[0], "lp0.a");
    EXPECT_EQ(order[1], "lp0.b");
    EXPECT_EQ(order[2], "lp1.a");
    EXPECT_EQ(order[3], "lp1.b");
    EXPECT_EQ(order[4], "lp2.a");
    EXPECT_EQ(order[5], "lp2.b");
    EXPECT_EQ(sched.messages_posted(), 6u);
}

// Zero lookahead + zero window quantum = lockstep pumping: every
// window fires exactly one timestamp, so the global firing order is the
// merged time order.
TEST(LpSync, ZeroLookaheadFallsBackToSequentialPumping)
{
    Simulator hub;
    Simulator lp0, lp1;
    LpScheduler::Config cfg;
    cfg.lookahead = 0.0;
    cfg.window = 0.0;
    LpScheduler sched(hub, cfg);
    sched.add_lp(lp0);
    sched.add_lp(lp1);

    std::vector<double> fired;
    for (double t : {0.1, 0.3, 0.5})
        lp0.schedule_at(t, [&fired, t] { fired.push_back(t); });
    for (double t : {0.2, 0.4})
        lp1.schedule_at(t, [&fired, t] { fired.push_back(t); });

    sched.run_until(1.0);
    EXPECT_EQ(fired, (std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5}));
    // One lockstep window per distinct timestamp, no hub phases (the
    // hub never holds the minimum here).
    EXPECT_EQ(sched.windows(), 5u);
    EXPECT_EQ(sched.effective_window(), 0.0);
}

// ---------------------------------------------------------------------
// Activity-driven engine: only LPs with events due run; the LP heap's
// keys stay exact under hub-phase schedules and cancels; idle LP clocks
// read the hub phase's t0.
// ---------------------------------------------------------------------

namespace {

/** What a scenario observed. */
struct LpTrace {
    std::vector<std::vector<SimTime>> fired; ///< per LP, event times
    std::vector<SimTime> hub_seen;           ///< values read by hub events
    std::uint64_t windows = 0;
    std::uint64_t hub_phases = 0;
    std::uint64_t lp_runs = 0;
    SimTime end = 0.0;

    bool operator==(const LpTrace &o) const
    {
        return fired == o.fired && hub_seen == o.hub_seen &&
               windows == o.windows && hub_phases == o.hub_phases &&
               lp_runs == o.lp_runs && end == o.end;
    }
};

/** Hub + @p n LPs under one scheduler; each LP event appends its time
 *  to the LP's own log. */
struct LpRig {
    Simulator hub;
    std::vector<std::unique_ptr<Simulator>> lps;
    LpScheduler sched;
    LpTrace trace;

    LpRig(std::size_t n, double lookahead)
        : sched(hub, [&] {
              LpScheduler::Config c;
              c.lookahead = lookahead;
              return c;
          }())
    {
        trace.fired.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            lps.push_back(std::make_unique<Simulator>());
            sched.add_lp(*lps.back());
        }
    }

    windserve::sim::EventHandle at(std::size_t i, SimTime t)
    {
        return lps[i]->schedule_at(t, [this, i] { log(i); });
    }

    void log(std::size_t i) { trace.fired[i].push_back(lps[i]->now()); }

    LpTrace run(SimTime horizon)
    {
        trace.end = sched.run_until(horizon);
        trace.windows = sched.windows();
        trace.hub_phases = sched.hub_phases();
        trace.lp_runs = sched.lp_runs();
        return trace;
    }
};

} // namespace

TEST(LpActivity, IdleLpsAreNeverRun)
{
    LpRig rig(64, 0.01);
    for (SimTime when : {0.1, 0.2, 0.3, 0.5})
        rig.at(5, when);
    for (SimTime when : {0.15, 0.35, 0.505})
        rig.at(40, when);
    LpTrace t = rig.run(10.0);
    // One window per isolated event, plus one at 0.5 that runs both
    // LPs (0.505 lies inside [0.5, 0.51)). The other 62 never run.
    EXPECT_EQ(t.windows, 6u);
    EXPECT_EQ(t.lp_runs, 7u);
    EXPECT_EQ(t.fired[5], (std::vector<SimTime>{0.1, 0.2, 0.3, 0.5}));
    EXPECT_EQ(t.fired[40], (std::vector<SimTime>{0.15, 0.35, 0.505}));
    EXPECT_DOUBLE_EQ(t.end, 0.505);
}

TEST(LpActivity, HubScheduleEarlierThanHeadWakesIdleLp)
{
    LpRig rig(3, 0.01);
    rig.at(1, 5.0); // LP 1's head, keyed at 5.0
    rig.at(0, 2.0);
    rig.hub.schedule_at(1.0, [&rig] {
        // Decrease-key: LP 1's next event moves from 5.0 to 1.5.
        rig.lps[1]->schedule(0.5, [&rig] { rig.log(1); });
    });
    rig.hub.schedule_at(1.7, [&rig] {
        rig.trace.hub_seen.push_back(
            static_cast<double>(rig.trace.fired[1].size()));
    });
    LpTrace t = rig.run(10.0);
    EXPECT_EQ(t.fired[1], (std::vector<SimTime>{1.5, 5.0}));
    // The hub event at 1.7 runs after LP 1's 1.5 event, not before.
    EXPECT_EQ(t.hub_seen, (std::vector<SimTime>{1.0}));
    EXPECT_EQ(t.windows, 3u);
    EXPECT_EQ(t.hub_phases, 2u);
}

TEST(LpActivity, HubCancelOfLpHeadNeitherStallsNorShiftsWindows)
{
    auto scenario = [](bool with_cancelled) {
        LpRig rig(2, 1.0);
        if (with_cancelled) {
            windserve::sim::EventHandle h = rig.at(1, 2.0);
            rig.hub.schedule_at(1.0, [&rig, h] { rig.lps[1]->cancel(h); });
        } else {
            rig.hub.schedule_at(1.0, [] {});
        }
        rig.at(1, 6.0);
        rig.at(0, 3.0);
        rig.at(0, 4.5);
        return rig.run(100.0);
    };
    LpTrace cancelled = scenario(true);
    LpTrace control = scenario(false);
    // The stale 2.0 key must not open a window at 2.0 ([2, 3) would
    // also push LP 0's 3.0 event into a later window).
    EXPECT_TRUE(cancelled == control);
    EXPECT_EQ(cancelled.fired[1], (std::vector<SimTime>{6.0}));
    EXPECT_EQ(cancelled.windows, 3u);
    EXPECT_DOUBLE_EQ(cancelled.end, 6.0);
}

TEST(LpActivity, LongIdleLpReadsT0InLaterHubPhase)
{
    LpRig rig(2, 0.01);
    for (int i = 1; i <= 9; ++i)
        rig.at(0, 0.1 * i);
    rig.hub.schedule_at(0.95, [&rig] {
        // LP 1 has been idle through nine windows and a hub phase.
        rig.trace.hub_seen.push_back(rig.lps[1]->now());
        rig.trace.hub_seen.push_back(rig.lps[0]->now());
        // schedule() on the idle LP is relative to the hub's t0.
        rig.lps[1]->schedule(0.01, [&rig] { rig.log(1); });
    });
    rig.hub.schedule_at(0.5, [&rig] {
        rig.trace.hub_seen.push_back(rig.lps[1]->now());
    });
    LpTrace t = rig.run(10.0);
    EXPECT_EQ(t.hub_seen, (std::vector<SimTime>{0.5, 0.95, 0.95}));
    EXPECT_EQ(t.fired[1], (std::vector<SimTime>{0.96}));
    // LP 1 ran exactly once; LP 0 once per event.
    EXPECT_EQ(t.lp_runs, 10u);
}

TEST(LpActivity, ThrowingRunLeavesNoDanglingLpClock)
{
    for (bool from_hub : {false, true}) {
        auto hub = std::make_unique<Simulator>();
        std::vector<std::unique_ptr<Simulator>> lps;
        for (int i = 0; i < 4; ++i)
            lps.push_back(std::make_unique<Simulator>());
        {
            LpScheduler::Config cfg;
            cfg.lookahead = 0.01;
            LpScheduler sched(*hub, cfg);
            for (auto &lp : lps)
                sched.add_lp(*lp);
            lps[0]->schedule_at(0.2, [] {});
            hub->schedule_at(0.3, [] {}); // raises the clock floor
            lps[2]->schedule_at(9.0, [] {});
            auto boom = [] { throw std::runtime_error("boom"); };
            if (from_hub)
                hub->schedule_at(0.5, boom);
            else
                lps[3]->schedule_at(0.5, boom);
            EXPECT_THROW(sched.run_until(10.0), std::runtime_error)
                << "from_hub=" << from_hub;
            EXPECT_FALSE(sched.in_hub_phase());
        }
        // The scheduler is gone; its LPs keep working standalone.
        std::vector<SimTime> seen;
        for (auto &lp : lps) {
            seen.push_back(lp->now());
            bool ran = false;
            lp->schedule(0.25, [&ran] { ran = true; });
            lp->run_until(8.0);
            EXPECT_TRUE(ran);
        }
        // The floor (0.5 for a hub throw, else 0.3) is baked in.
        const SimTime floor = from_hub ? 0.5 : 0.3;
        EXPECT_DOUBLE_EQ(seen[1], floor) << "from_hub=" << from_hub;
        EXPECT_DOUBLE_EQ(seen[2], floor) << "from_hub=" << from_hub;
    }
}

// ---------------------------------------------------------------------
// Chaos campaign: pods killed mid-offload, under full audit, with the
// fuzz summary checked against a replay that keeps the system.
// ---------------------------------------------------------------------

TEST(LpChaos, MidOffloadCrashCampaignMatchesSequentialReplay)
{
    std::uint64_t offload_cases = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        hs::ExperimentConfig cfg = hs::make_fuzz_config(
            seed, hs::SystemKind::WindServe, /*chaos=*/true, /*nodes=*/2);
        // Campaign-local pressure: a tiny KV pool plus low watermarks
        // keep decode offloads in flight when the chaos schedule kills
        // pods (the fuzz traces are too small to trip the stock pair).
        cfg.kv_capacity_tokens_override = 2560;
        cfg.offload_highwater = 0.10;
        cfg.offload_lowwater = 0.08;

        hs::FuzzResult res = hs::run_fuzz_case(cfg);
        EXPECT_EQ(res.audit_violations, 0u) << "seed=" << seed;

        // Count how often the offload path actually engaged (run once
        // more with the system held so the cluster counters are
        // visible — run_fuzz_case only returns the summary).
        auto system = hs::make_system(cfg);
        windserve::engine::RunOptions opts;
        opts.slo = cfg.scenario.slo;
        opts.horizon = cfg.horizon;
        opts.faults = cfg.faults;
        auto run = system->run(hs::make_trace(cfg), opts);
        auto *cs = dynamic_cast<windserve::core::ClusterServeSystem *>(
            system.get());
        ASSERT_NE(cs, nullptr) << "seed=" << seed;
        offload_cases += cs->cross_offloads() > 0 ? 1 : 0;
        EXPECT_EQ(hs::result_checksum(run.requests), res.checksum)
            << "seed=" << seed;
    }
    // The campaign is vacuous if no case ever had an offload in the
    // air; at these watermarks several seeds must.
    EXPECT_GT(offload_cases, 0u);
}

// ---------------------------------------------------------------------
// 2-node golden snapshot
// ---------------------------------------------------------------------

namespace {

constexpr double kRelTol = 0.05; // 5%

std::string
golden_path()
{
    return std::string(WS_GOLDEN_DIR) + "/lp_cluster_metrics.txt";
}

std::vector<std::pair<std::string, double>>
lp_snapshot()
{
    hs::ExperimentConfig ec;
    ec.system = hs::SystemKind::WindServe;
    ec.num_nodes = 2;
    ec.pods_per_node = 2;
    ec.per_gpu_rate = 1.5;
    ec.num_requests = 300;
    ec.seed = 4242;
    ec.audit = true;
    ec.offload_highwater = 0.10;
    ec.offload_lowwater = 0.08;
    auto r = hs::run_experiment(ec);
    EXPECT_EQ(r.audit_violations, 0u);
    EXPECT_EQ(r.metrics.num_finished + r.metrics.num_unfinished, 300u);

    const auto &m = r.metrics;
    return {
        {"num_finished", static_cast<double>(m.num_finished)},
        {"events_fired", static_cast<double>(r.events_fired)},
        {"ttft_mean", m.ttft.mean()},
        {"ttft_p99", m.ttft.p99()},
        {"tpot_mean", m.tpot.mean()},
        {"e2e_mean", m.e2e.mean()},
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

TEST(LpGolden, TwoNodeThreads4RunMatchesSnapshot)
{
    auto snap = lp_snapshot();

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
