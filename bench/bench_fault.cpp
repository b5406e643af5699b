/**
 * @file
 * Fault-recovery benchmark: WindServe's backup-aware re-dispatch vs
 * DistServe-style full re-migration under the same crash schedule.
 *
 * Sweeps instance-crash MTBF over both disaggregated systems with an
 * identical FaultConfig per column pair (same fault seed, same
 * registration order: prefill then decode, so the schedules correspond
 * event for event). WindServe recovers crash victims from surviving KV
 * prefix backups at the peer instance and routes arrivals around the
 * down instance; DistServe waits out the repair and recomputes every
 * victim's full prefill. The recovery-latency gap is the paper's
 * backup optimisation (§3.3) read as an availability win.
 *
 * Arming faults switches WindServe's BackupManager to proactive
 * checkpointing (fault_tolerance_mode), so backups exist without the
 * memory-pressure trigger ever firing.
 *
 * --replicas=N (N >= 2) runs the WindServe column under an N-replica
 * control plane and adds leader crashes and control partitions to the
 * schedule (drawn after the historical streams, so the instance-crash
 * schedule is unchanged). The table gains failover columns — count,
 * mean and p99 of the leader-loss -> first-post-failover-commit
 * latency; DistServe has no control plane and shows "-". --audit
 * attaches the fail-fast invariant auditor (including the control
 * plane's split-brain / double-apply checks) to every cell. --json
 * writes BENCH_fault.json for the ctrl_smoke gate. A --replicas value
 * that is not plain digits >= 1 prints the problem and exits 2, like
 * the shared flags (bench_common.hpp).
 */
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "windserve/windserve.hpp"

using namespace windserve;

namespace {

harness::ExperimentConfig
cell(const harness::Scenario &sc, harness::SystemKind system, double mtbf,
     std::size_t n, std::size_t replicas, bool audit)
{
    harness::ExperimentConfig ec;
    ec.scenario = sc;
    ec.system = system;
    ec.per_gpu_rate = 2.0;
    ec.num_requests = n;
    ec.audit = audit;

    fault::FaultConfig fc;
    fc.seed = 0xfa17;
    // The trace's active window is ~200 s (1500 arrivals at 8/s
    // aggregate): bound the plan to it so every fault can find work.
    fc.horizon = 400.0;
    fc.warmup = 10.0;
    fc.crash_mtbf = mtbf;
    fc.mean_repair = 8.0;
    if (replicas > 1 && system == harness::SystemKind::WindServe) {
        // Control-plane chaos rides on the same schedule; its streams
        // fork after the historical ones, so the instance-crash plan
        // is byte-identical to the --replicas=1 sweep.
        ec.ctrl_replicas = replicas;
        fc.leader_mtbf = 30.0;
        fc.mean_leader_repair = 5.0;
        fc.partition_mtbf = 60.0;
        fc.mean_partition = 2.0;
    }
    ec.faults = fc;
    return ec;
}

std::string
fmt_sample(const sim::Sample &s, double q)
{
    if (s.empty())
        return "-";
    return metrics::fmt_seconds(q < 0 ? s.mean() : s.percentile(q));
}

std::string
fault_json(const std::vector<double> &mtbfs,
           const std::vector<harness::ExperimentResult> &r,
           std::size_t num_systems, std::size_t replicas)
{
    std::ostringstream out;
    out.precision(10);
    out << "{\n";
    out << "  \"bench\": \"fault\",\n";
    out << "  \"schema_version\": 1,\n";
    out << "  \"build\": \""
#ifdef NDEBUG
        << "optimized"
#else
        << "debug"
#endif
        << "\",\n";
    out << "  \"replicas\": " << replicas << ",\n";
    out << "  \"sweep\": [\n";
    for (std::size_t j = 0; j < mtbfs.size(); ++j) {
        for (std::size_t i = 0; i < num_systems; ++i) {
            const auto &res = r[j * num_systems + i];
            const auto &m = res.metrics;
            out << "    {\n";
            out << "      \"mtbf_s\": " << mtbfs[j] << ",\n";
            out << "      \"system\": \"" << res.system_name << "\",\n";
            out << "      \"crashes\": " << m.instance_crashes << ",\n";
            out << "      \"redispatches\": " << m.fault_redispatches
                << ",\n";
            out << "      \"recoveries\": " << m.fault_recoveries << ",\n";
            out << "      \"aborted\": " << m.num_aborted << ",\n";
            out << "      \"recovery_mean_s\": "
                << (m.recovery_latency.empty()
                        ? 0.0
                        : m.recovery_latency.mean())
                << ",\n";
            out << "      \"goodput_tokens_per_s\": "
                << m.goodput_tokens_per_s << ",\n";
            out << "      \"slo_attainment\": " << m.slo_attainment
                << ",\n";
            out << "      \"leader_crashes\": " << m.leader_crashes
                << ",\n";
            out << "      \"control_partitions\": "
                << m.control_partitions << ",\n";
            out << "      \"ctrl_elections\": " << m.ctrl_elections
                << ",\n";
            out << "      \"failovers\": " << m.failovers << ",\n";
            out << "      \"failover_mean_s\": "
                << (m.failover_latency.empty()
                        ? 0.0
                        : m.failover_latency.mean())
                << ",\n";
            out << "      \"failover_p99_s\": "
                << (m.failover_latency.empty()
                        ? 0.0
                        : m.failover_latency.percentile(99.0))
                << "\n";
            out << "    }"
                << (j * num_systems + i + 1 < r.size() ? "," : "") << "\n";
        }
    }
    out << "  ]\n";
    out << "}\n";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel the fault-bench-specific flags off before the shared parser
    // (which rejects unknown arguments).
    std::size_t replicas = 1;
    bool json = false, audit = false;
    std::string json_path = "BENCH_fault.json";
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--replicas=", 0) == 0) {
            try {
                replicas = harness::parse_count("--replicas",
                                                arg.substr(11), 1);
            } catch (const std::invalid_argument &e) {
                std::cerr << e.what() << "\n";
                return 2;
            }
        } else if (arg == "--json")
            json = true;
        else if (arg.rfind("--json=", 0) == 0) {
            json = true;
            json_path = arg.substr(7);
        } else if (arg == "--audit")
            audit = true;
        else
            rest.push_back(argv[i]);
    }
    auto args = benchcommon::parse_args(static_cast<int>(rest.size()),
                                        rest.data(), 1500);
    std::size_t n = args.num_requests;
    const std::vector<double> mtbfs{15.0, 30.0, 60.0, 120.0};
    const std::vector<harness::SystemKind> systems{
        harness::SystemKind::WindServe, harness::SystemKind::DistServe};

    auto sc = harness::Scenario::opt13b_sharegpt();
    std::vector<harness::ExperimentConfig> cells;
    for (double mtbf : mtbfs)
        for (auto system : systems)
            cells.push_back(cell(sc, system, mtbf, n, replicas, audit));
    auto r = harness::run_experiments(cells, args.jobs,
                                      benchcommon::stderr_progress());

    std::cout << "== Crash recovery under MTBF sweep (OPT-13B, ShareGPT "
                 "@ 2.0 req/s/GPU, mean repair 8 s, same fault seed"
              << (replicas > 1
                      ? ", " + std::to_string(replicas) +
                            "-replica control plane"
                      : "")
              << ") ==\n";
    harness::TextTable t({"mtbf (s)", "system", "crashes", "redisp",
                          "recovered", "aborted", "recovery mean",
                          "recovery p99", "goodput (tok/s)", "slo",
                          "failovers", "failover mean", "failover p99"});
    for (std::size_t j = 0; j < mtbfs.size(); ++j) {
        for (std::size_t i = 0; i < systems.size(); ++i) {
            const auto &res = r[j * systems.size() + i];
            const auto &m = res.metrics;
            t.add_row({harness::cell(mtbfs[j], 0), res.system_name,
                       std::to_string(m.instance_crashes),
                       std::to_string(m.fault_redispatches),
                       std::to_string(m.fault_recoveries),
                       std::to_string(m.num_aborted),
                       fmt_sample(m.recovery_latency, -1.0),
                       fmt_sample(m.recovery_latency, 99.0),
                       harness::cell(m.goodput_tokens_per_s, 1),
                       metrics::fmt_percent(m.slo_attainment),
                       m.leader_crashes + m.control_partitions > 0
                           ? std::to_string(m.failovers)
                           : "-",
                       fmt_sample(m.failover_latency, -1.0),
                       fmt_sample(m.failover_latency, 99.0)});
        }
    }
    std::cout << t.render() << "\n";

    // Headline: mean recovery latency, WindServe vs DistServe, pooled
    // over the sweep (the acceptance comparison).
    sim::Sample ws, ds;
    for (std::size_t j = 0; j < mtbfs.size(); ++j) {
        ws.merge(r[j * systems.size() + 0].metrics.recovery_latency);
        ds.merge(r[j * systems.size() + 1].metrics.recovery_latency);
    }
    std::cout << "pooled mean recovery latency: WindServe "
              << fmt_sample(ws, -1.0) << " vs DistServe "
              << fmt_sample(ds, -1.0) << "\n";
    if (replicas > 1) {
        sim::Sample fo;
        std::uint64_t failovers = 0;
        for (std::size_t j = 0; j < mtbfs.size(); ++j) {
            const auto &m = r[j * systems.size() + 0].metrics;
            fo.merge(m.failover_latency);
            failovers += m.failovers;
        }
        std::cout << "pooled failovers: " << failovers << ", mean "
                  << fmt_sample(fo, -1.0) << ", p99 "
                  << fmt_sample(fo, 99.0) << "\n";
    }

    if (json) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "cannot write " << json_path << "\n";
            return 1;
        }
        out << fault_json(mtbfs, r, systems.size(), replicas);
        std::cout << "wrote " << json_path << "\n";
    }

    benchcommon::maybe_export(args, cells[0]);
    return 0;
}
