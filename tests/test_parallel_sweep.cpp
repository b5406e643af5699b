/**
 * @file
 * Determinism and plumbing tests for the parallel sweep engine:
 * a grid's results must be BIT-identical at every thread count, cells
 * must own independent RNG streams, progress must arrive in cell order
 * regardless of completion order, and a failing cell must cancel the
 * rest and surface its exception. Also pins every export of a
 * fully-instrumented multi-pod run, and the event order at shared
 * arrival timestamps, to golden digests.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "baselines/baseline_system.hpp"
#include "core/windserve_system.hpp"
#include "harness/parallel.hpp"
#include "harness/sweep.hpp"

namespace hs = windserve::harness;

namespace {

/** Bit-exact equality of two samples (order-sensitive on purpose:
 *  requests are collected in trace order, which must not depend on
 *  scheduling). */
void
expect_sample_identical(const windserve::sim::Sample &a,
                        const windserve::sim::Sample &b,
                        const std::string &what)
{
    ASSERT_EQ(a.count(), b.count()) << what;
    const auto &xs = a.values();
    const auto &ys = b.values();
    for (std::size_t i = 0; i < xs.size(); ++i)
        ASSERT_EQ(xs[i], ys[i]) << what << "[" << i << "]";
}

void
expect_result_identical(const hs::ExperimentResult &a,
                        const hs::ExperimentResult &b)
{
    ASSERT_EQ(a.system_name, b.system_name);
    ASSERT_EQ(a.per_gpu_rate, b.per_gpu_rate);
    expect_sample_identical(a.metrics.ttft, b.metrics.ttft,
                            a.system_name + " ttft");
    expect_sample_identical(a.metrics.tpot, b.metrics.tpot,
                            a.system_name + " tpot");
    expect_sample_identical(a.metrics.e2e, b.metrics.e2e,
                            a.system_name + " e2e");
    expect_sample_identical(a.metrics.itl_max, b.metrics.itl_max,
                            a.system_name + " itl_max");
    ASSERT_EQ(a.metrics.slo_attainment, b.metrics.slo_attainment);
    ASSERT_EQ(a.metrics.num_finished, b.metrics.num_finished);
    ASSERT_EQ(a.metrics.swap_out_events, b.metrics.swap_out_events);
    ASSERT_EQ(a.metrics.makespan, b.metrics.makespan);
    ASSERT_EQ(a.dispatches, b.dispatches);
    ASSERT_EQ(a.reschedules, b.reschedules);
    ASSERT_EQ(a.migrations_completed, b.migrations_completed);
    ASSERT_EQ(a.backups, b.backups);
    ASSERT_EQ(a.decode_swap_outs, b.decode_swap_outs);
}

hs::SweepBuilder
small_grid()
{
    return hs::SweepBuilder()
        .scenario(hs::Scenario::opt13b_sharegpt())
        .systems({hs::SystemKind::WindServe, hs::SystemKind::DistServe,
                  hs::SystemKind::Vllm})
        .rates({0.5, 1.0, 1.5, 2.0})
        .num_requests(120)
        .seed(2025);
}

} // namespace

// ---------------------------------------------------------------------
// Tentpole acceptance: 3 systems x 4 rates, bit-identical at
// --jobs {1, 2, 8} regardless of completion order.
// ---------------------------------------------------------------------

TEST(ParallelSweep, GridBitIdenticalAcrossThreadCounts)
{
    auto seq = small_grid().jobs(1).run();
    for (std::size_t jobs : {2u, 8u}) {
        auto par = small_grid().jobs(jobs).run();
        ASSERT_EQ(par.results.size(), seq.results.size());
        for (std::size_t i = 0; i < seq.results.size(); ++i) {
            ASSERT_EQ(par.results[i].size(), seq.results[i].size());
            for (std::size_t j = 0; j < seq.results[i].size(); ++j)
                expect_result_identical(seq.results[i][j],
                                        par.results[i][j]);
        }
    }
}

TEST(ParallelSweep, ProgressArrivesInCellOrderAtAnyThreadCount)
{
    for (std::size_t jobs : {1u, 8u}) {
        std::vector<std::size_t> order;
        std::size_t total_seen = 0;
        auto result =
            small_grid()
                .jobs(jobs)
                .on_progress([&](std::size_t k, std::size_t total,
                                 const hs::ExperimentResult &r) {
                    order.push_back(k);
                    total_seen = total;
                    EXPECT_FALSE(r.system_name.empty());
                })
                .run();
        ASSERT_EQ(order.size(), 12u) << "jobs=" << jobs;
        EXPECT_EQ(total_seen, 12u);
        for (std::size_t k = 0; k < order.size(); ++k)
            EXPECT_EQ(order[k], k) << "jobs=" << jobs;
        // Cell numbering is system-major: cell 0 is systems[0] at the
        // lowest rate.
        EXPECT_EQ(result.results[0][0].system_name, "WindServe");
    }
}

TEST(ParallelSweep, FailingCellCancelsAndRethrows)
{
    std::atomic<std::size_t> started{0};
    EXPECT_THROW(
        hs::parallel_for(64, 4,
                         [&](std::size_t i) {
                             started.fetch_add(1);
                             if (i == 3)
                                 throw std::runtime_error("cell 3 died");
                             // Give the canceller a chance to win the
                             // race for the remaining indices.
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(1));
                         }),
        std::runtime_error);
    // Cancellation is best-effort (in-flight cells finish), but the
    // bulk of the 64 jobs must never start.
    EXPECT_LT(started.load(), 64u);
}

// ---------------------------------------------------------------------
// Per-cell RNG independence
// ---------------------------------------------------------------------

TEST(ParallelSweep, CellSeedsAreUniqueAcrossGrid)
{
    std::set<std::uint64_t> seen;
    for (auto system : {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
                        hs::SystemKind::Vllm, hs::SystemKind::WindServeNoSplit})
        for (double rate : {0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0})
            for (std::uint64_t seed : {1ull, 42ull, 2025ull})
                seen.insert(hs::derive_cell_seed(seed, system, rate));
    // 4 systems x 8 rates x 3 base seeds: every derived stream distinct.
    EXPECT_EQ(seen.size(), 4u * 8u * 3u);
}

TEST(ParallelSweep, CellSeedIsAPureFunctionOfCoordinates)
{
    auto a = hs::derive_cell_seed(42, hs::SystemKind::WindServe, 2.0);
    auto b = hs::derive_cell_seed(42, hs::SystemKind::WindServe, 2.0);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, hs::derive_cell_seed(43, hs::SystemKind::WindServe, 2.0));
    EXPECT_NE(a, hs::derive_cell_seed(42, hs::SystemKind::DistServe, 2.0));
    EXPECT_NE(a, hs::derive_cell_seed(42, hs::SystemKind::WindServe, 2.5));
}

TEST(ParallelSweep, CellTracesAreIndependentAcrossCells)
{
    // Two cells at the same rate but different systems draw from
    // different streams, so their traces differ; the SAME cell
    // regenerates the identical trace.
    hs::ExperimentConfig a;
    a.seed = hs::derive_cell_seed(7, hs::SystemKind::WindServe, 2.0);
    hs::ExperimentConfig b = a;
    b.seed = hs::derive_cell_seed(7, hs::SystemKind::DistServe, 2.0);

    auto ta = hs::make_trace(a);
    auto ta2 = hs::make_trace(a);
    auto tb = hs::make_trace(b);
    ASSERT_EQ(ta.size(), ta2.size());
    bool same_as_self = true, same_as_other = true;
    for (std::size_t i = 0; i < ta.size(); ++i) {
        same_as_self &= ta[i].arrival_time == ta2[i].arrival_time &&
                        ta[i].prompt_tokens == ta2[i].prompt_tokens;
        same_as_other &= ta[i].arrival_time == tb[i].arrival_time &&
                         ta[i].prompt_tokens == tb[i].prompt_tokens;
    }
    EXPECT_TRUE(same_as_self);
    EXPECT_FALSE(same_as_other);
}

// ---------------------------------------------------------------------
// Engine plumbing
// ---------------------------------------------------------------------

TEST(ParallelSweep, RunExperimentsKeepsInputOrder)
{
    std::vector<hs::ExperimentConfig> cells(3);
    cells[0].system = hs::SystemKind::Vllm;
    cells[1].system = hs::SystemKind::DistServe;
    cells[2].system = hs::SystemKind::WindServe;
    for (auto &c : cells) {
        c.num_requests = 60;
        c.per_gpu_rate = 1.0;
    }
    auto results = hs::run_experiments(cells, 3);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].system_name, "vLLM");
    EXPECT_EQ(results[1].system_name, "DistServe");
    EXPECT_EQ(results[2].system_name, "WindServe");
}

TEST(ParallelSweep, OrderedReporterHoldsBackOutOfOrderCompletions)
{
    std::vector<std::size_t> delivered;
    hs::OrderedReporter rep(4, [&](std::size_t i) {
        delivered.push_back(i);
    });
    rep.complete(2);
    EXPECT_TRUE(delivered.empty());
    rep.complete(0);
    EXPECT_EQ(delivered, (std::vector<std::size_t>{0}));
    rep.complete(1);
    EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1, 2}));
    rep.complete(3);
    EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(rep.delivered(), 4u);
}

TEST(ParallelSweep, ParallelForCoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h.store(0);
    hs::parallel_for(hits.size(), 8, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << i;
}

// ---------------------------------------------------------------------
// Multi-pod cluster cells
// ---------------------------------------------------------------------

// The sharded cluster path obeys the same determinism contract as the
// single-node systems: a grid of multi-pod cells is bit-identical at
// jobs 1, 2 and 8.
TEST(ParallelSweep, MultiPodCellsBitIdenticalAcrossThreadCounts)
{
    std::vector<hs::ExperimentConfig> cells;
    for (auto kind : {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
                      hs::SystemKind::Vllm}) {
        hs::ExperimentConfig ec;
        ec.system = kind;
        ec.num_nodes = 2;
        ec.pods_per_node = 2;
        ec.per_gpu_rate = 1.5;
        ec.num_requests = 240;
        ec.seed = hs::derive_cell_seed(11, kind, ec.per_gpu_rate);
        ec.audit = true;
        cells.push_back(std::move(ec));
    }
    auto seq = hs::run_experiments(cells, 1);
    for (std::size_t jobs : {2u, 8u}) {
        auto par = hs::run_experiments(cells, jobs);
        ASSERT_EQ(seq.size(), par.size());
        for (std::size_t i = 0; i < seq.size(); ++i) {
            expect_result_identical(seq[i], par[i]);
            ASSERT_EQ(seq[i].audit_events, par[i].audit_events) << i;
            ASSERT_EQ(seq[i].audit_violations, 0u) << i;
        }
    }
}

// ---------------------------------------------------------------------
// Multi-pod LP engine exports, pinned byte for byte
// ---------------------------------------------------------------------

namespace {

/** A fully-instrumented 4-node (8-pod) cell: every export surface on,
 *  and offload watermarks lowered so the cross-pod message path is
 *  part of what the export pin covers. */
hs::ExperimentConfig
intra_cell(hs::SystemKind kind)
{
    hs::ExperimentConfig ec;
    ec.system = kind;
    ec.num_nodes = 4;
    ec.pods_per_node = 2;
    ec.per_gpu_rate = 1.5;
    ec.num_requests = 160;
    ec.seed = hs::derive_cell_seed(17, kind, ec.per_gpu_rate);
    ec.audit = true;
    ec.record_trace = true;
    ec.telemetry = windserve::obs::TelemetryConfig{};
    ec.offload_highwater = 0.10;
    ec.offload_lowwater = 0.08;
    return ec;
}

/** 64-bit FNV-1a of @p len raw bytes, as 16 hex digits. */
std::string
digest(const void *data, std::size_t len)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i)
        h = (h ^ p[i]) * 1099511628211ull;
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
digest(const std::string &s)
{
    return digest(s.data(), s.size());
}

std::string
digest(const windserve::sim::Sample &s)
{
    return digest(s.values().data(), s.values().size() * sizeof(double));
}

/** Exact decimal text of a double (17 significant digits round-trip). */
std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Every deterministic surface of @p r, one "key value" line each:
 *  FNV-1a digests of the latency samples and of the trace, telemetry
 *  and journal exports; exact values of the scalars, the
 *  cross-simulator event count included. */
std::vector<std::pair<std::string, std::string>>
export_digests(const hs::ExperimentResult &r)
{
    const auto &m = r.metrics;
    return {
        {"ttft", digest(m.ttft)},
        {"tpot", digest(m.tpot)},
        {"e2e", digest(m.e2e)},
        {"itl_max", digest(m.itl_max)},
        {"slo_attainment", exact(m.slo_attainment)},
        {"num_finished", std::to_string(m.num_finished)},
        {"swap_out_events", std::to_string(m.swap_out_events)},
        {"makespan", exact(m.makespan)},
        {"dispatches", std::to_string(r.dispatches)},
        {"reschedules", std::to_string(r.reschedules)},
        {"migrations_completed", std::to_string(r.migrations_completed)},
        {"backups", std::to_string(r.backups)},
        {"decode_swap_outs", std::to_string(r.decode_swap_outs)},
        {"events_fired", std::to_string(r.events_fired)},
        {"trace_json", digest(r.trace_json)},
        {"trace_request_csv", digest(r.trace_request_csv)},
        {"trace_events", std::to_string(r.trace_events)},
        {"metrics_prometheus", digest(r.metrics_prometheus)},
        {"metrics_csv", digest(r.metrics_csv)},
        {"journal_csv", digest(r.journal_csv)},
        {"journal_json", digest(r.journal_json)},
        {"profile_table", digest(r.profile_table)},
        {"metric_samples", std::to_string(r.metric_samples)},
        {"journal_decisions", std::to_string(r.journal_decisions)},
        {"audit_events", std::to_string(r.audit_events)},
    };
}

/** intra_cell() under a chaos schedule that fires instance and node
 *  crashes, link outages and straggler windows while requests are in
 *  flight, with a transfer watchdog short enough to trip. */
hs::ExperimentConfig
chaos_cell(hs::SystemKind kind)
{
    hs::ExperimentConfig ec = intra_cell(kind);
    windserve::fault::FaultConfig fc;
    fc.horizon = 30.0;
    fc.warmup = 2.0;
    fc.seed = 5;
    fc.crash_mtbf = 2.0;
    fc.mean_repair = 2.0;
    fc.link_mtbf = 3.0;
    fc.mean_outage = 3.0;
    fc.straggler_mtbf = 4.0;
    fc.mean_straggler = 3.0;
    fc.node_mtbf = 8.0;
    fc.mean_node_repair = 3.0;
    fc.recovery.transfer_timeout = 0.3;
    ec.faults = fc;
    return ec;
}

/** export_digests() plus the eight fault counters and the recovery
 *  latency sample of a chaos run. */
std::vector<std::pair<std::string, std::string>>
chaos_digests(const hs::ExperimentResult &r)
{
    const auto &m = r.metrics;
    auto out = export_digests(r);
    out.insert(out.end(), {
        {"instance_crashes", std::to_string(m.instance_crashes)},
        {"link_outages", std::to_string(m.link_outages)},
        {"straggler_windows", std::to_string(m.straggler_windows)},
        {"fault_redispatches", std::to_string(m.fault_redispatches)},
        {"fault_retries", std::to_string(m.fault_retries)},
        {"fault_aborts", std::to_string(m.fault_aborts)},
        {"transfer_timeouts", std::to_string(m.transfer_timeouts)},
        {"fault_recoveries", std::to_string(m.fault_recoveries)},
        {"recovery_latency", digest(m.recovery_latency)},
    });
    return out;
}

std::string
golden_path(const char *file)
{
    return std::string(WS_GOLDEN_DIR) + "/" + file;
}

/** Compare @p got with the golden file line by line, so a failure
 *  names the surface that moved; WS_UPDATE_GOLDEN=1 re-records it. */
void
expect_golden(const std::string &got, const std::string &path)
{
    if (std::getenv("WS_UPDATE_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << got;
        GTEST_SKIP() << "golden file regenerated: " << path;
    }

    std::ifstream ws(path);
    ASSERT_TRUE(ws) << "missing golden file " << path
                    << " — regenerate with WS_UPDATE_GOLDEN=1";
    std::istringstream gs(got);
    std::string g, w;
    while (std::getline(ws, w)) {
        ASSERT_TRUE(std::getline(gs, g)) << "missing line: " << w;
        EXPECT_EQ(g, w) << "export drifted (re-record only for an "
                           "intended change, with WS_UPDATE_GOLDEN=1)";
    }
    EXPECT_FALSE(std::getline(gs, g)) << "extra line: " << g;
}

/** A re-dispatch decision precedes the dispatch it triggers: no
 *  request in @p journal_csv has a `dispatch` row before a
 *  `redispatch` row at the same timestamp, whichever pod recorded
 *  them. */
void
expect_redispatch_before_dispatch(const std::string &journal_csv)
{
    std::set<std::pair<std::string, std::string>> dispatched;
    std::istringstream in(journal_csv);
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        std::istringstream row(line);
        std::string time, kind, request;
        std::getline(row, time, ',');
        std::getline(row, kind, ',');
        std::getline(row, request, ',');
        if (kind == "dispatch") {
            dispatched.emplace(time, request);
        } else if (kind == "redispatch") {
            EXPECT_EQ(dispatched.count({time, request}), 0u)
                << "request " << request << " dispatched before its "
                << "re-dispatch at t = " << time;
        }
    }
}

} // namespace

// Exact pin of the LP engine's output: all three systems on a 4-node
// (8-pod) cluster with audit, trace and telemetry on. Unlike the 5%
// metric snapshots, one moved byte in any export fails this test.
TEST(LpExports, FourNodeCellsMatchGoldenDigests)
{
    std::ostringstream got;
    for (auto kind : {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
                      hs::SystemKind::Vllm}) {
        auto r = hs::run_experiment(intra_cell(kind));
        ASSERT_EQ(r.audit_violations, 0u) << hs::to_string(kind);
        ASSERT_GT(r.trace_events, 0u) << hs::to_string(kind);
        ASSERT_GT(r.metric_samples, 0u) << hs::to_string(kind);
        for (const auto &[key, value] : export_digests(r))
            got << hs::to_string(kind) << "." << key << " " << value
                << "\n";
    }
    expect_golden(got.str(), golden_path("lp_cluster_exports.txt"));
}

// The same cells under chaos: pins the fault-target registration order
// (the modulo order of FaultEvent::target), the position of the
// ws_fault_events_total counters in the metric exports, and every
// recovery path the faults drive, for all three systems.
TEST(LpExports, ChaosCellsMatchGoldenDigests)
{
    std::ostringstream got;
    for (auto kind : {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
                      hs::SystemKind::Vllm}) {
        auto r = hs::run_experiment(chaos_cell(kind));
        ASSERT_EQ(r.audit_violations, 0u) << hs::to_string(kind);
        ASSERT_GT(r.metrics.instance_crashes, 0u) << hs::to_string(kind);
        ASSERT_GT(r.metrics.straggler_windows, 0u) << hs::to_string(kind);
        expect_redispatch_before_dispatch(r.journal_csv);
        for (const auto &[key, value] : chaos_digests(r))
            got << hs::to_string(kind) << "." << key << " " << value
                << "\n";
    }
    expect_golden(got.str(), golden_path("lp_chaos_exports.txt"));
}

// The two baselines on one pod under the same chaos schedule: pins the
// single-pair names ("distserve/prefill", "kv/p2d"), vLLM's default two
// engines, and their fault-target and metric registration order, which
// the 8-pod pins above cover only in their multi-replica form.
TEST(BaselineExports, SinglePodChaosCellsMatchGoldenDigests)
{
    std::ostringstream got;
    for (auto kind : {hs::SystemKind::DistServe, hs::SystemKind::Vllm}) {
        hs::ExperimentConfig ec = chaos_cell(kind);
        ec.num_nodes = 1;
        ec.pods_per_node = 1;
        auto r = hs::run_experiment(ec);
        ASSERT_EQ(r.audit_violations, 0u) << hs::to_string(kind);
        ASSERT_GT(r.metrics.instance_crashes, 0u) << hs::to_string(kind);
        ASSERT_GT(r.metrics.straggler_windows, 0u) << hs::to_string(kind);
        for (const auto &[key, value] : chaos_digests(r))
            got << hs::to_string(kind) << "." << key << " " << value
                << "\n";
    }
    expect_golden(got.str(), golden_path("baseline_pod_chaos_exports.txt"));
}

// The RunOptions path (trace + audit attachments created inside
// run()) must preserve the engine's determinism contract: cells of a
// fully-instrumented grid are bit-identical — down to the exported
// trace bytes — at jobs 1 and jobs 4.
TEST(ParallelSweep, RunOptionsPathBitIdenticalAtJobs1And4)
{
    std::vector<hs::ExperimentConfig> cells;
    for (auto kind : {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
                      hs::SystemKind::Vllm}) {
        hs::ExperimentConfig ec;
        ec.system = kind;
        ec.per_gpu_rate = 2.0;
        ec.num_requests = 100;
        ec.seed = hs::derive_cell_seed(7, kind, ec.per_gpu_rate);
        ec.record_trace = true; // RunOptions::tracing
        ec.audit = true;        // RunOptions::audit
        cells.push_back(std::move(ec));
    }

    auto seq = hs::run_experiments(cells, 1);
    auto par = hs::run_experiments(cells, 4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        expect_result_identical(seq[i], par[i]);
        ASSERT_EQ(seq[i].trace_json, par[i].trace_json) << i;
        ASSERT_EQ(seq[i].trace_request_csv, par[i].trace_request_csv) << i;
        ASSERT_EQ(seq[i].trace_events, par[i].trace_events) << i;
        ASSERT_EQ(seq[i].audit_events, par[i].audit_events) << i;
        ASSERT_EQ(seq[i].audit_violations, 0u) << i;
    }
}

// ---------------------------------------------------------------------
// Tie order at shared arrival timestamps, pinned byte for byte
// ---------------------------------------------------------------------

namespace {

namespace wl = windserve::workload;

/** One tie-order cell: a zero-noise system and its display name. */
struct TieCell {
    const char *name;
    std::function<std::unique_ptr<windserve::engine::ServingSystem>()> make;
};

windserve::core::WindServeConfig
quiet_windserve()
{
    windserve::core::WindServeConfig ws;
    ws.exec_noise_sigma = 0.0;
    return ws;
}

/** WindServe on one pod, WindServe on two pods of one node (hub
 *  arrivals and the LP engine), DistServe and vLLM, all noise-free. */
std::vector<TieCell>
tie_cells()
{
    using windserve::baselines::BaselineSystem;
    return {
        {"WindServe",
         [] {
             return std::make_unique<windserve::core::WindServeSystem>(
                 quiet_windserve());
         }},
        {"WindServe2pods",
         [] {
             windserve::core::ClusterConfig cc;
             cc.pod = quiet_windserve();
             cc.num_nodes = 1;
             cc.pods_per_node = 2;
             return std::make_unique<windserve::core::ClusterServeSystem>(
                 std::move(cc));
         }},
        {"DistServe",
         [] {
             windserve::baselines::DistServeConfig ds;
             ds.exec_noise_sigma = 0.0;
             return std::make_unique<BaselineSystem>(std::move(ds));
         }},
        {"vLLM",
         [] {
             windserve::baselines::VllmConfig vc;
             vc.exec_noise_sigma = 0.0;
             return std::make_unique<BaselineSystem>(std::move(vc));
         }},
    };
}

/** Append @p n requests arriving together at @p t to @p trace. */
void
add_burst(std::vector<wl::Request> &trace, double t, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j) {
        wl::Request r;
        r.id = trace.size();
        r.prompt_tokens = 160 + 96 * ((r.id * 7) % 11);
        r.output_tokens = 3 + (r.id * 5) % 17;
        r.arrival_time = t;
        trace.push_back(r);
    }
}

/**
 * Bursts that tie with each other and with in-flight work. A probe run
 * of the opening burst alone gives the exact time t1 at which its first
 * prefill pass completes; the full trace then puts a second burst at
 * t1, behind one lone arrival, so that pass's completion (scheduled
 * long before) and the burst share a timestamp. Integer-time bursts
 * follow.
 */
std::vector<wl::Request>
tie_trace(const TieCell &cell)
{
    std::vector<wl::Request> trace;
    add_burst(trace, 0.0, 5);
    const double t1 = cell.make()->run(trace).requests[0].first_token_time;
    EXPECT_GT(t1, 0.0) << cell.name;
    add_burst(trace, t1 / 2, 1);
    add_burst(trace, t1, 4);
    for (double t : {1.0, 2.0, 3.0})
        add_burst(trace, std::ceil(t1) + t, 5);
    return trace;
}

/** Digest of every per-request stamp and counter, in trace order. */
std::string
stamps_digest(const std::vector<wl::Request> &requests)
{
    std::ostringstream s;
    for (const wl::Request &r : requests) {
        for (double v : {r.arrival_time, r.prefill_enqueue_time,
                         r.prefill_start_time, r.first_token_time,
                         r.transfer_done_time, r.decode_enqueue_time,
                         r.decode_start_time, r.finish_time,
                         r.last_token_time, r.max_token_gap})
            s << exact(v) << ' ';
        s << r.generated << ' ' << r.prefilled << ' '
          << wl::to_string(r.state) << ' ' << r.swap_outs << ' '
          << r.migrations << ' ' << r.prefill_dispatched << ' '
          << r.was_chunked << '\n';
    }
    return digest(s.str());
}

/** "<name>.<key> <value>" lines for one run of @p trace.
 *  @return the run's requests. */
std::vector<wl::Request>
tie_lines(std::ostream &got, const std::string &name, const TieCell &cell,
          const std::vector<wl::Request> &trace, double horizon)
{
    auto sys = cell.make();
    auto rr = sys->run(trace, {}, horizon);
    got << name << ".stamps " << stamps_digest(rr.requests) << "\n"
        << name << ".events_fired " << sys->total_events_fired() << "\n"
        << name << ".num_finished " << rr.metrics.num_finished << "\n";
    return std::move(rr.requests);
}

} // namespace

// Several arrivals share each timestamp, and one burst lands exactly on
// a pass completion that was scheduled before the arrival ahead of it
// fired. Every event at a shared timestamp fires in (time, sequence)
// order, so any change to the sequence numbers arrivals get moves a
// digest here. The last cell ends the replay on a burst's timestamp:
// that burst still arrives, the next one never does.
TEST(ArrivalTies, BurstCellsMatchGoldenDigests)
{
    std::ostringstream got;
    for (const TieCell &cell : tie_cells()) {
        const auto trace = tie_trace(cell);
        const auto done = tie_lines(got, cell.name, cell, trace, 3600.0);
        // The opening pass still completes exactly on the t1 burst.
        EXPECT_EQ(done[0].first_token_time, trace[6].arrival_time)
            << cell.name;
        if (std::string(cell.name) == "WindServe")
            tie_lines(got, "WindServe@horizon", cell, trace,
                      trace[10].arrival_time);
    }
    expect_golden(got.str(), golden_path("arrival_tie_exports.txt"));
}
