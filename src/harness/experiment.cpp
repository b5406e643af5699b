#include "harness/experiment.hpp"

#include "obs/trace_recorder.hpp"

namespace windserve::harness {

const char *
to_string(SystemKind k)
{
    switch (k) {
      case SystemKind::WindServe:
        return "WindServe";
      case SystemKind::DistServe:
        return "DistServe";
      case SystemKind::Vllm:
        return "vLLM";
      case SystemKind::WindServeNoSplit:
        return "WindServe-no-split";
      case SystemKind::WindServeNoResche:
        return "WindServe-no-resche";
      case SystemKind::WindServeNoDispatch:
        return "WindServe-no-dispatch";
    }
    return "unknown";
}

namespace {

std::size_t
num_pods_of(const ExperimentConfig &cfg)
{
    return cfg.num_nodes * cfg.pods_per_node;
}

/** The knobs all three systems share, from @p cfg. */
engine::SystemConfig
system_config(const ExperimentConfig &cfg)
{
    engine::SystemConfig sys;
    sys.model = cfg.scenario.model;
    sys.topology = cfg.scenario.topology;
    sys.swap_enabled = cfg.swap_enabled;
    sys.host_memory_bytes = cfg.host_memory_bytes;
    sys.kv_capacity_tokens_override = cfg.kv_capacity_tokens_override;
    sys.seed = cfg.seed ^ 0x9e3779b97f4a7c15ULL;
    return sys;
}

core::WindServeConfig
make_windserve_config(const ExperimentConfig &cfg)
{
    const Scenario &sc = cfg.scenario;
    core::WindServeConfig ws;
    static_cast<engine::SystemConfig &>(ws) = system_config(cfg);
    ws.prefill_parallelism = sc.prefill_parallelism;
    ws.decode_parallelism = sc.decode_parallelism;
    ws.ttft_slo = sc.slo.ttft;
    ws.tpot_slo = sc.slo.tpot;
    // "we set the threshold slightly below the TTFT SLO" (§3.2.2).
    ws.coordinator.thrd = cfg.thrd.value_or(0.8 * sc.slo.ttft);
    ws.migration.stall_free = cfg.stall_free;
    if (cfg.transfer_policy)
        ws.transfer.policy = *cfg.transfer_policy;
    ws.coordinator.enable_backup = cfg.enable_backup;
    switch (cfg.system) {
      case SystemKind::WindServeNoSplit:
        ws.enable_sbd = false;
        break;
      case SystemKind::WindServeNoResche:
        ws.coordinator.enable_rescheduling = false;
        ws.coordinator.enable_backup = false;
        break;
      case SystemKind::WindServeNoDispatch:
        ws.coordinator.enable_dispatch = false;
        break;
      default:
        break;
    }
    return ws;
}

std::unique_ptr<engine::ServingSystem>
make_windserve(const ExperimentConfig &cfg)
{
    core::WindServeConfig ws = make_windserve_config(cfg);
    if (num_pods_of(cfg) == 1 && cfg.ctrl_replicas <= 1)
        return std::make_unique<core::WindServeSystem>(std::move(ws));
    core::ClusterConfig cc;
    cc.pod = std::move(ws);
    cc.num_nodes = cfg.num_nodes;
    cc.pods_per_node = cfg.pods_per_node;
    cc.inter_node_links = cfg.inter_node_links;
    if (cfg.offload_highwater)
        cc.offload_highwater = *cfg.offload_highwater;
    if (cfg.offload_lowwater)
        cc.offload_lowwater = *cfg.offload_lowwater;
    cc.ctrl.replicas = cfg.ctrl_replicas;
    return std::make_unique<core::ClusterServeSystem>(std::move(cc));
}

} // namespace

std::unique_ptr<engine::ServingSystem>
make_system(const ExperimentConfig &cfg)
{
    const Scenario &sc = cfg.scenario;
    switch (cfg.system) {
      case SystemKind::WindServe:
      case SystemKind::WindServeNoSplit:
      case SystemKind::WindServeNoResche:
      case SystemKind::WindServeNoDispatch:
        return make_windserve(cfg);
      case SystemKind::DistServe: {
        baselines::DistServeConfig ds;
        static_cast<engine::SystemConfig &>(ds) = system_config(cfg);
        ds.prefill_parallelism = sc.prefill_parallelism;
        ds.decode_parallelism = sc.decode_parallelism;
        ds.num_replicas = num_pods_of(cfg);
        return std::make_unique<baselines::BaselineSystem>(ds);
      }
      case SystemKind::Vllm: {
        baselines::VllmConfig vc;
        static_cast<engine::SystemConfig &>(vc) = system_config(cfg);
        // vLLM places every engine on real GPUs (unlike DistServe's
        // per-replica placement), so a cluster run widens the topology
        // to the full node count.
        vc.topology.num_nodes = cfg.num_nodes;
        // Same parallelism per engine as one PD instance, replicated
        // over the scenario's full GPU budget.
        vc.engine_parallelism = sc.prefill_parallelism;
        vc.num_engines = num_pods_of(cfg) * sc.num_gpus() /
                         sc.prefill_parallelism.num_gpus();
        return std::make_unique<baselines::BaselineSystem>(vc);
      }
    }
    throw std::logic_error("make_system: unknown system kind");
}

std::vector<workload::Request>
make_trace(const ExperimentConfig &cfg)
{
    workload::TraceConfig tc;
    tc.dataset = cfg.scenario.dataset;
    tc.arrival.kind = workload::ArrivalKind::Poisson;
    // The scenario describes one pod; a cluster run replays the same
    // per-GPU rate over the whole fleet (linear scaling rule, §2.2).
    tc.arrival.rate =
        cfg.per_gpu_rate * static_cast<double>(cfg.scenario.num_gpus()) *
        static_cast<double>(cfg.num_nodes * cfg.pods_per_node);
    tc.num_requests = cfg.num_requests;
    tc.seed = cfg.seed;
    return workload::TraceBuilder(tc).build();
}

ExperimentResult
run_experiment(const ExperimentConfig &cfg)
{
    auto system = make_system(cfg);
    engine::RunOptions opts;
    opts.slo = cfg.scenario.slo;
    opts.horizon = cfg.horizon;
    opts.tracing = cfg.record_trace;
    if (cfg.audit) {
        audit::AuditConfig ac;
        ac.repro_seed = cfg.seed;
        ac.repro_config = to_string(cfg.system);
        if (cfg.faults)
            ac.repro_extra = " --chaos";
        if (cfg.num_nodes > 1)
            ac.repro_extra += " --nodes=" + std::to_string(cfg.num_nodes);
        // Strictly appended after every historical field so old
        // --repro-seed lines replay byte-identically.
        if (cfg.ctrl_replicas > 1)
            ac.repro_extra +=
                " --replicas=" + std::to_string(cfg.ctrl_replicas);
        opts.audit = std::move(ac);
    }
    opts.faults = cfg.faults; // horizon <= 0 inherits opts.horizon
    opts.telemetry = cfg.telemetry;
    auto trace = make_trace(cfg);
    auto run = system->run(trace, opts);

    ExperimentResult result;
    result.system_name = to_string(cfg.system);
    result.per_gpu_rate = cfg.per_gpu_rate;
    result.metrics = std::move(run.metrics);
    result.events_fired = system->total_events_fired();
    if (const obs::TraceRecorder *rec = system->trace()) {
        result.trace_json = rec->chrome_json();
        result.trace_request_csv =
            obs::TraceRecorder::request_csv(run.requests);
        result.trace_events = rec->num_events();
    }
    if (const audit::SimAuditor *aud = system->audit()) {
        result.audit_events = aud->events_audited();
        result.audit_violations = aud->total_violations();
    }
    if (const obs::Telemetry *tel = system->telemetry()) {
        result.metrics_prometheus = tel->registry().prometheus_text();
        result.metrics_csv = tel->registry().csv();
        result.journal_csv = tel->journal_data().csv();
        result.journal_json = tel->journal_data().json();
        // Counts-only table: wall-clock columns are non-deterministic.
        result.profile_table = tel->profile_table(false);
        result.metric_samples = tel->registry().num_samples();
        result.metric_families = tel->registry().num_families();
        result.journal_decisions = tel->journal_data().size();
        result.profiled_attribution = tel->attributed_fraction();
    }

    if (auto *cs = dynamic_cast<core::ClusterServeSystem *>(system.get())) {
        result.dispatches = cs->total_dispatches();
        result.reschedules = cs->total_reschedules();
        result.migrations_completed = cs->total_migrations();
        result.backups = cs->total_backups();
    }
    for (std::size_t i = 0; i < system->num_replicas(); ++i)
        result.decode_swap_outs += system->decode(i).swap_out_events();
    return result;
}

} // namespace windserve::harness
