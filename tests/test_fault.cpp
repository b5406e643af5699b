/**
 * @file
 * Fault injection & recovery subsystem tests.
 *
 * Covers the chaos engine end to end: deterministic seed-derived fault
 * plans, byte-identity of a fault-armed run with an empty schedule,
 * crash/recovery smoke under full invariant audit, retry-cap abort
 * accounting, thread-count-independent determinism of chaos fuzzing,
 * the WindServe-vs-DistServe recovery-cost comparison the subsystem
 * exists to demonstrate, and a golden snapshot of a fixed-seed faulty
 * run (regenerate with WS_UPDATE_GOLDEN=1).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "core/windserve_system.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "harness/experiment.hpp"
#include "harness/fuzz.hpp"

namespace eng = windserve::engine;
namespace flt = windserve::fault;
namespace hs = windserve::harness;

namespace {

// The fuzz scenarios drain fast (4-GPU OPT-13B, arrivals span well
// under a minute at these rates), so chaos dials must be tight or every
// crash lands on an idle cluster and the subsystem is never exercised.
flt::FaultConfig
chaos_config()
{
    flt::FaultConfig fc;
    fc.horizon = 90.0;
    fc.warmup = 5.0;
    fc.seed = 99;
    fc.crash_mtbf = 10.0;
    fc.mean_repair = 5.0;
    fc.link_mtbf = 25.0;
    fc.mean_outage = 2.0;
    fc.degrade_factor = 0.0; // hard stall
    fc.straggler_mtbf = 30.0;
    fc.mean_straggler = 8.0;
    fc.straggler_slowdown = 2.5;
    return fc;
}

} // namespace

TEST(FaultPlan, DeterministicAndSorted)
{
    flt::FaultConfig fc = chaos_config();
    flt::FaultPlan a = flt::FaultPlan::generate(fc);
    flt::FaultPlan b = flt::FaultPlan::generate(fc);

    ASSERT_FALSE(a.events().empty());
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].time, b.events()[i].time);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].target, b.events()[i].target);
        EXPECT_EQ(a.events()[i].param, b.events()[i].param);
        if (i > 0) {
            EXPECT_LE(a.events()[i - 1].time, a.events()[i].time);
        }
    }
    EXPECT_GT(a.num_crashes(), 0u);

    // Every window that opens closes, on the same target.
    std::map<std::size_t, int> link_open, strag_open;
    for (const auto &ev : a.events()) {
        switch (ev.kind) {
          case flt::FaultKind::LinkDown:
            ++link_open[ev.target];
            break;
          case flt::FaultKind::LinkUp:
            --link_open[ev.target];
            break;
          case flt::FaultKind::StragglerBegin:
            ++strag_open[ev.target];
            break;
          case flt::FaultKind::StragglerEnd:
            --strag_open[ev.target];
            break;
          default:
            break;
        }
    }
    for (const auto &[t, n] : link_open)
        EXPECT_EQ(n, 0) << "unbalanced outage on target " << t;
    for (const auto &[t, n] : strag_open)
        EXPECT_EQ(n, 0) << "unbalanced straggler on target " << t;
}

TEST(FaultPlan, ClassStreamsAreIndependent)
{
    // Dialing one fault class on or off must not perturb the others'
    // schedules (one forked rng stream per class).
    flt::FaultConfig with = chaos_config();
    flt::FaultConfig without = with;
    without.link_mtbf = 0.0;
    without.straggler_mtbf = 0.0;

    auto crashes_of = [](const flt::FaultPlan &p) {
        std::vector<flt::FaultEvent> out;
        for (const auto &ev : p.events())
            if (ev.kind == flt::FaultKind::InstanceCrash)
                out.push_back(ev);
        return out;
    };
    auto a = crashes_of(flt::FaultPlan::generate(with));
    auto b = crashes_of(flt::FaultPlan::generate(without));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_EQ(a[i].param, b[i].param);
    }
}

TEST(FaultInjector, EmptyScheduleIsByteIdentical)
{
    // A fault-armed system whose schedule generated zero events must be
    // byte-identical to a fault-free run: the injector's presence alone
    // (watchdog wiring included) changes nothing.
    hs::ExperimentConfig ec;
    ec.scenario = hs::Scenario::opt13b_sharegpt();
    ec.system = hs::SystemKind::WindServe;
    ec.per_gpu_rate = 1.5;
    ec.num_requests = 150;
    ec.seed = 31337;

    auto baseline_sys = hs::make_system(ec);
    auto baseline =
        baseline_sys->run(hs::make_trace(ec), ec.scenario.slo, ec.horizon);

    flt::FaultConfig fc;
    fc.horizon = ec.horizon;
    fc.crash_mtbf = 0.0;
    fc.link_mtbf = 0.0;
    fc.straggler_mtbf = 0.0;
    fc.recovery.transfer_timeout = 0.0; // watchdog off: pure no-op arm
    auto armed_sys = hs::make_system(ec);
    eng::RunOptions armed_opts;
    armed_opts.slo = ec.scenario.slo;
    armed_opts.horizon = ec.horizon;
    armed_opts.faults = fc;
    auto armed = armed_sys->run(hs::make_trace(ec), armed_opts);
    ASSERT_TRUE(armed_sys->faults()->plan().events().empty());

    EXPECT_EQ(hs::result_checksum(baseline.requests),
              hs::result_checksum(armed.requests));
    EXPECT_EQ(baseline.metrics.num_finished, armed.metrics.num_finished);
    EXPECT_EQ(armed.metrics.instance_crashes, 0u);
    EXPECT_EQ(armed.metrics.fault_redispatches, 0u);
}

TEST(FaultInjector, CrashRecoverySmokeUnderAudit)
{
    // Aggressive chaos under the fail-fast auditor: block/byte
    // conservation and the lifecycle state machine must hold across
    // crashes, and every request must be accounted for at the end.
    hs::ExperimentConfig ec;
    ec.scenario = hs::Scenario::opt13b_sharegpt();
    ec.system = hs::SystemKind::WindServe;
    ec.per_gpu_rate = 1.5;
    ec.num_requests = 150;
    ec.seed = 4242;
    ec.horizon = 1200.0;
    ec.audit = true;
    ec.kv_capacity_tokens_override = 6144; // pressure: backups active
    // Keep the plan's own 90 s horizon: chaos concentrated in the
    // window where requests are actually in flight.
    ec.faults = chaos_config();

    auto r = hs::run_experiment(ec);
    EXPECT_EQ(r.audit_violations, 0u);
    const auto &m = r.metrics;
    EXPECT_GT(m.instance_crashes, 0u);
    EXPECT_GT(m.fault_redispatches, 0u);
    EXPECT_EQ(m.num_finished + m.num_unfinished, 150u);
    EXPECT_GT(m.num_finished, 0u);
    // Aborted requests are a subset of the unfinished ones.
    EXPECT_LE(m.num_aborted, m.num_unfinished);
    EXPECT_LE(static_cast<std::size_t>(m.fault_recoveries),
              static_cast<std::size_t>(m.fault_redispatches));
}

TEST(FaultInjector, NodeCrashesReachASinglePod)
{
    // A single-pod deployment is one node: a node_mtbf > 0 schedule
    // must take both of its instances down together under the
    // fail-fast auditor, and every request must be accounted for.
    hs::ExperimentConfig ec;
    ec.scenario = hs::Scenario::opt13b_sharegpt();
    ec.system = hs::SystemKind::WindServe;
    ec.per_gpu_rate = 1.5;
    ec.num_requests = 150;
    ec.seed = 4242;
    auto sys = hs::make_system(ec);
    ASSERT_NE(dynamic_cast<windserve::core::WindServeSystem *>(sys.get()),
              nullptr);

    flt::FaultConfig fc;
    fc.horizon = 90.0;
    fc.warmup = 5.0;
    fc.seed = 99;
    fc.crash_mtbf = 0.0;
    fc.node_mtbf = 15.0;
    fc.mean_node_repair = 5.0;
    eng::RunOptions opts;
    opts.slo = ec.scenario.slo;
    opts.horizon = 1200.0;
    opts.audit = windserve::audit::AuditConfig{};
    opts.faults = fc;
    auto run = sys->run(hs::make_trace(ec), opts);

    EXPECT_GT(sys->faults()->node_crashes(), 0u);
    EXPECT_EQ(sys->audit()->total_violations(), 0u);
    const auto &m = run.metrics;
    EXPECT_GT(m.instance_crashes, 0u);
    EXPECT_EQ(m.num_finished + m.num_unfinished, 150u);
    EXPECT_GT(m.num_finished, 0u);
}

TEST(FaultInjector, RetryCapAbortsVictims)
{
    // max_attempts = 0: the first re-dispatch attempt of every victim
    // exceeds the cap, so each distinct victim aborts exactly once and
    // lands in num_aborted (and therefore num_unfinished).
    hs::ExperimentConfig ec;
    ec.scenario = hs::Scenario::opt13b_sharegpt();
    ec.system = hs::SystemKind::WindServe;
    ec.per_gpu_rate = 1.5;
    ec.num_requests = 120;
    ec.seed = 7;
    ec.horizon = 900.0;
    ec.audit = true;

    flt::FaultConfig fc;
    fc.horizon = 60.0;
    fc.warmup = 5.0;
    fc.seed = 5;
    fc.crash_mtbf = 8.0;
    fc.mean_repair = 5.0;
    fc.recovery.max_attempts = 0;
    ec.faults = fc;

    auto r = hs::run_experiment(ec);
    const auto &m = r.metrics;
    EXPECT_EQ(r.audit_violations, 0u);
    ASSERT_GT(m.instance_crashes, 0u);
    EXPECT_GT(m.fault_aborts, 0u);
    EXPECT_EQ(m.fault_redispatches, 0u); // cap hit before any re-dispatch
    EXPECT_EQ(m.fault_recoveries, 0u);
    EXPECT_EQ(static_cast<std::uint64_t>(m.num_aborted), m.fault_aborts);
    EXPECT_LE(m.num_aborted, m.num_unfinished);
    EXPECT_EQ(m.num_finished + m.num_unfinished, 120u);
}

TEST(FaultInjector, ChaosFuzzDeterministicAcrossJobs)
{
    // Fixed-seed faulty runs are bit-identical at any thread count;
    // every case runs under the fail-fast auditor (a violation throws).
    hs::FuzzOptions opt;
    opt.iterations = 3;
    opt.base_seed = 900;
    opt.chaos = true;

    opt.jobs = 1;
    auto seq = hs::run_fuzz(opt);
    opt.jobs = 4;
    auto par = hs::run_fuzz(opt);

    ASSERT_EQ(seq.results.size(), par.results.size());
    EXPECT_EQ(seq.total_violations, 0u);
    EXPECT_EQ(par.total_violations, 0u);
    bool any_faulty = false;
    for (std::size_t i = 0; i < seq.results.size(); ++i) {
        EXPECT_EQ(seq.results[i].checksum, par.results[i].checksum)
            << "case " << i << " (" << seq.results[i].system_name
            << ", seed " << seq.results[i].seed << ")";
        EXPECT_EQ(seq.results[i].aborted, par.results[i].aborted);
        if (seq.results[i].finished < seq.results[i].num_requests ||
            seq.results[i].aborted > 0)
            any_faulty = true;
    }
    (void)any_faulty; // chaos may or may not bite at these seeds
}

TEST(FaultRecovery, WindServeBackupRedispatchBeatsDistServeRecompute)
{
    // The acceptance comparison: same crash schedule, same workload, a
    // healthy operating point (no KV squeeze — past saturation every
    // recovery just measures queueing). WindServe checkpoints
    // proactively once chaos is armed, restores victims from the
    // prefill-side copies and routes arrivals around the down instance;
    // DistServe recomputes every victim's full prefill and its
    // phase-locked instances cannot cover for each other.
    // Mirror of bench_fault's mtbf-15 row: a ~190 s active window with
    // crashes every ~15 s yields hundreds of recoveries per system, so
    // the mean is a property of the recovery paths, not of one lucky
    // victim.
    flt::FaultConfig fc;
    fc.horizon = 400.0;
    fc.warmup = 10.0;
    fc.seed = 0xfa17;
    fc.crash_mtbf = 15.0;
    fc.mean_repair = 8.0;

    hs::ExperimentConfig base;
    base.scenario = hs::Scenario::opt13b_sharegpt();
    base.per_gpu_rate = 2.0;
    base.num_requests = 1500;
    base.seed = 1234;
    base.horizon = 1800.0;
    base.faults = fc;

    hs::ExperimentConfig ws_cfg = base;
    ws_cfg.system = hs::SystemKind::WindServe;
    hs::ExperimentConfig ds_cfg = base;
    ds_cfg.system = hs::SystemKind::DistServe;

    auto ws = hs::run_experiment(ws_cfg);
    auto ds = hs::run_experiment(ds_cfg);

    ASSERT_GT(ws.metrics.instance_crashes, 0u);
    ASSERT_GT(ds.metrics.instance_crashes, 0u);
    ASSERT_FALSE(ws.metrics.recovery_latency.empty());
    ASSERT_FALSE(ds.metrics.recovery_latency.empty());
    EXPECT_LT(ws.metrics.recovery_latency.mean(),
              ds.metrics.recovery_latency.mean())
        << "WindServe " << ws.metrics.recovery_latency.mean()
        << "s vs DistServe " << ds.metrics.recovery_latency.mean() << "s";
}

// ---------------------------------------------------------------------
// Golden snapshot of a fixed-seed faulty run. Mirrors
// test_golden_metrics.cpp; lives in its own file because that test
// asserts an exact key set.
// ---------------------------------------------------------------------

namespace {

constexpr double kRelTol = 0.05;

std::string
fault_golden_path()
{
    return std::string(WS_GOLDEN_DIR) + "/chatbot_fault_metrics.txt";
}

std::vector<std::pair<std::string, double>>
fault_snapshot()
{
    hs::ExperimentConfig ec;
    ec.scenario = hs::Scenario::opt13b_sharegpt();
    ec.system = hs::SystemKind::WindServe;
    ec.per_gpu_rate = 2.0;
    ec.num_requests = 400;
    ec.seed = 1234;
    ec.audit = true;

    flt::FaultConfig fc;
    fc.horizon = 150.0;
    fc.warmup = 5.0;
    fc.seed = 77;
    fc.crash_mtbf = 15.0;
    fc.mean_repair = 5.0;
    fc.link_mtbf = 40.0;
    fc.mean_outage = 2.0;
    fc.straggler_mtbf = 60.0;
    fc.mean_straggler = 10.0;
    fc.straggler_slowdown = 2.0;
    ec.faults = fc;

    auto r = hs::run_experiment(ec);
    EXPECT_EQ(r.audit_violations, 0u);

    const auto &m = r.metrics;
    return {
        {"num_finished", static_cast<double>(m.num_finished)},
        {"num_aborted", static_cast<double>(m.num_aborted)},
        {"instance_crashes", static_cast<double>(m.instance_crashes)},
        {"link_outages", static_cast<double>(m.link_outages)},
        {"straggler_windows", static_cast<double>(m.straggler_windows)},
        {"fault_redispatches", static_cast<double>(m.fault_redispatches)},
        {"fault_recoveries", static_cast<double>(m.fault_recoveries)},
        {"recovery_latency_mean", m.recovery_latency.empty()
                                      ? 0.0
                                      : m.recovery_latency.mean()},
        {"goodput_tokens_per_s", m.goodput_tokens_per_s},
        {"ttft_p50", m.ttft.p50()},
        {"ttft_p99", m.ttft.p99()},
        {"tpot_p90", m.tpot.p90()},
        {"slo_attainment", m.slo_attainment},
    };
}

} // namespace

TEST(GoldenFaultMetrics, ChatbotChaosRunMatchesSnapshot)
{
    auto snap = fault_snapshot();

    if (std::getenv("WS_UPDATE_GOLDEN")) {
        std::ofstream out(fault_golden_path());
        ASSERT_TRUE(out) << "cannot write " << fault_golden_path();
        out.precision(17);
        for (const auto &[key, value] : snap)
            out << key << " " << value << "\n";
        GTEST_SKIP() << "golden file regenerated: " << fault_golden_path();
    }

    std::ifstream in(fault_golden_path());
    std::map<std::string, double> golden;
    std::string key;
    double value;
    while (in >> key >> value)
        golden[key] = value;
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << fault_golden_path()
        << " — regenerate with WS_UPDATE_GOLDEN=1";
    ASSERT_EQ(golden.size(), snap.size()) << "golden key set drifted";

    for (const auto &[k, v] : snap) {
        ASSERT_TRUE(golden.count(k)) << "golden misses key " << k;
        double want = golden[k];
        double tol = kRelTol * std::max(std::abs(want), 1e-9);
        EXPECT_NEAR(v, want, tol)
            << k << " drifted: got " << v << ", golden " << want
            << " (retune intentionally with WS_UPDATE_GOLDEN=1)";
    }
}
