#include "workloads.hpp"

#include <stdexcept>

#include "harness/fuzz.hpp"

namespace simbench {

using windserve::harness::ExperimentConfig;
using windserve::harness::Scenario;
using windserve::harness::SystemKind;

namespace {

/** bench_scale's per-pod trace size and decode-offload watermarks, so
 *  the cluster workloads match its cells. */
constexpr std::size_t kRequestsPerPod = 400;
constexpr double kHighwater = 0.10;
constexpr double kLowwater = 0.08;

/** pod8_longbench_3sys trace size and per-GPU rate. Above 1.0 req/s/GPU
 *  DistServe's queue grows without bound on LongBench. */
constexpr std::size_t kLongbenchRequests = 60000;
constexpr double kLongbenchRate = 0.75;

ExperimentConfig
cluster_cell(std::size_t num_nodes, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.scenario = Scenario::opt13b_sharegpt();
    cfg.system = SystemKind::WindServe;
    cfg.num_nodes = num_nodes;
    cfg.pods_per_node = 2;
    cfg.per_gpu_rate = 1.2;
    cfg.num_requests = kRequestsPerPod * num_nodes * cfg.pods_per_node;
    cfg.seed = seed;
    cfg.offload_highwater = kHighwater;
    cfg.offload_lowwater = kLowwater;
    return cfg;
}

Workload
cluster512_chat(std::uint64_t seed)
{
    return {"cluster512_chat", {cluster_cell(64, seed)}};
}

Workload
pod8_longbench_3sys(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.scenario = Scenario::llama2_13b_longbench();
    cfg.per_gpu_rate = kLongbenchRate;
    cfg.num_requests = kLongbenchRequests;
    cfg.seed = seed;
    // Twice the arrival span plus an hour: every request finishes, and
    // the run ends when the last one does.
    double span = static_cast<double>(kLongbenchRequests) /
                  (kLongbenchRate *
                   static_cast<double>(cfg.scenario.num_gpus()));
    cfg.horizon = 2.0 * span + 3600.0;
    Workload w{"pod8_longbench_3sys", {}};
    for (SystemKind kind :
         {SystemKind::WindServe, SystemKind::DistServe, SystemKind::Vllm}) {
        cfg.system = kind;
        w.systems.push_back(cfg);
    }
    return w;
}

Workload
cluster64_ctrl_chaos(std::uint64_t seed)
{
    ExperimentConfig cfg = cluster_cell(8, seed);
    cfg.ctrl_replicas = 3;
    cfg.audit = true;
    // bench_fault's chaos schedule. The trace's arrivals span ~83 s;
    // the plan covers twice that so every fault can find work.
    windserve::fault::FaultConfig fc;
    fc.seed = 0xfa17;
    fc.horizon = 160.0;
    fc.warmup = 10.0;
    fc.crash_mtbf = 30.0;
    fc.mean_repair = 8.0;
    fc.leader_mtbf = 30.0;
    fc.mean_leader_repair = 5.0;
    fc.partition_mtbf = 60.0;
    fc.mean_partition = 2.0;
    cfg.faults = fc;
    return {"cluster64_ctrl_chaos", {cfg}};
}

} // namespace

const std::vector<std::string> &
workload_names()
{
    static const std::vector<std::string> names{
        "cluster512_chat", "pod8_longbench_3sys", "cluster64_ctrl_chaos"};
    return names;
}

Workload
make_workload(const std::string &name, std::uint64_t seed)
{
    if (name == "cluster512_chat")
        return cluster512_chat(seed);
    if (name == "pod8_longbench_3sys")
        return pod8_longbench_3sys(seed);
    if (name == "cluster64_ctrl_chaos")
        return cluster64_ctrl_chaos(seed);
    throw std::invalid_argument("unknown workload: " + name);
}

windserve::engine::RunOptions
run_options(const ExperimentConfig &cfg)
{
    windserve::engine::RunOptions opts;
    opts.slo = cfg.scenario.slo;
    opts.horizon = cfg.horizon;
    if (cfg.audit) {
        windserve::audit::AuditConfig ac;
        ac.repro_seed = cfg.seed;
        ac.repro_config = "simbench";
        opts.audit = std::move(ac);
    }
    opts.faults = cfg.faults;
    opts.intra_threads = cfg.intra_threads;
    return opts;
}

Replay
replay(const ExperimentConfig &cfg,
       const std::vector<windserve::workload::Request> &trace,
       const windserve::engine::RunOptions &opts)
{
    Replay r;
    auto t0 = Clock::now();
    r.system = windserve::harness::make_system(cfg);
    r.record.make_system_s = seconds_since(t0);

    t0 = Clock::now();
    r.result = r.system->run(trace, opts);
    r.record.run_s = seconds_since(t0);

    const auto &m = r.result.metrics;
    r.record.system = windserve::harness::to_string(cfg.system);
    r.record.events = r.system->total_events_fired();
    r.record.checksum = windserve::harness::result_checksum(r.result.requests);
    r.record.requests = trace.size();
    r.record.finished = m.num_finished;
    r.record.unfinished = m.num_unfinished;
    r.record.aborted = m.num_aborted;
    r.record.ttft_p99_s = m.ttft.percentile(99.0);
    r.record.slo_attainment = m.slo_attainment;
    return r;
}

std::string
system_key(SystemKind kind)
{
    switch (kind) {
      case SystemKind::WindServe:
        return "windserve";
      case SystemKind::DistServe:
        return "distserve";
      case SystemKind::Vllm:
        return "vllm";
      default:
        break;
    }
    throw std::invalid_argument("simbench: system kind not benchmarked");
}

} // namespace simbench
