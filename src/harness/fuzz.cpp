#include "harness/fuzz.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "audit/sim_auditor.hpp"
#include "harness/parallel.hpp"
#include "simcore/rng.hpp"

namespace windserve::harness {

namespace {

// FNV-1a, folded over a value's raw bytes.
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
hash_request(const workload::Request &r)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = fnv1a(h, &r.id, sizeof(r.id));
    std::uint64_t gen = r.generated;
    h = fnv1a(h, &gen, sizeof(gen));
    h = fnv1a(h, &r.finish_time, sizeof(r.finish_time));
    h = fnv1a(h, &r.first_token_time, sizeof(r.first_token_time));
    std::uint32_t state = static_cast<std::uint32_t>(r.state);
    h = fnv1a(h, &state, sizeof(state));
    return h;
}

} // namespace

std::uint64_t
result_checksum(const std::vector<workload::Request> &requests)
{
    // XOR of per-request hashes: order-independent, so checksums agree
    // no matter how a caller ordered or partitioned the result set.
    std::uint64_t acc = 0;
    for (const auto &r : requests)
        acc ^= hash_request(r);
    return acc;
}

ExperimentConfig
make_fuzz_config(std::uint64_t seed, SystemKind system, bool chaos,
                 std::size_t nodes, std::size_t replicas, bool ctrl_chaos)
{
    // Independent stream per (seed, system) so the same seed explores
    // different configs on each system.
    sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL +
                 static_cast<std::uint64_t>(system) + 1);

    ExperimentConfig cfg;
    cfg.scenario = Scenario::opt13b_sharegpt();
    cfg.system = system;
    cfg.seed = seed;
    cfg.audit = true;
    cfg.num_requests =
        static_cast<std::size_t>(rng.uniform_int(40, 140));
    cfg.per_gpu_rate = rng.uniform(0.4, 2.5);
    // Bounded horizon: overload cases may legitimately not drain; the
    // auditor's end-of-run accounting covers unfinished requests too.
    cfg.horizon = rng.uniform(600.0, 1200.0);

    // Memory pressure dial. The floor keeps every sampled request
    // admissible (ShareGPT max_context is 2048 tokens) while staying
    // small enough that long decodes exhaust blocks and exercise
    // swapping, migration and parking.
    if (rng.chance(0.6)) {
        cfg.kv_capacity_tokens_override =
            static_cast<std::size_t>(rng.uniform_int(2560, 8192));
    }
    if (rng.chance(0.3)) {
        // Tiny host pool: swap-outs start bouncing off a full pool.
        cfg.host_memory_bytes = rng.uniform(1e6, 5e8);
    }
    if (rng.chance(0.15))
        cfg.swap_enabled = false; // park-in-queue fallback only

    // System-behaviour dials (WindServe variants read these).
    if (rng.chance(0.25))
        cfg.stall_free = false;
    if (rng.chance(0.25))
        cfg.enable_backup = false;
    if (rng.chance(0.2))
        cfg.transfer_policy = transfer::TransferPolicy::Synchronous;
    if (rng.chance(0.2))
        cfg.thrd = rng.uniform(0.05, 0.5);

    if (chaos) {
        // All chaos draws come AFTER every base draw: toggling the flag
        // never perturbs the fault-free config of the same seed.
        // Tight dials: the sampled traces (40-140 requests on 4 GPUs)
        // drain within tens of seconds, so faults must land early and
        // often to catch requests in flight at all.
        fault::FaultConfig fc;
        fc.seed = seed ^ 0xc2b2ae3d27d4eb4fULL;
        fc.warmup = rng.uniform(2.0, 20.0);
        fc.crash_mtbf = rng.uniform(8.0, 80.0);
        fc.mean_repair = rng.uniform(2.0, 15.0);
        if (rng.chance(0.5)) {
            fc.link_mtbf = rng.uniform(20.0, 120.0);
            fc.mean_outage = rng.uniform(0.5, 4.0);
            fc.degrade_factor =
                rng.chance(0.5) ? 0.0 : rng.uniform(0.05, 0.5);
        }
        if (rng.chance(0.5)) {
            fc.straggler_mtbf = rng.uniform(30.0, 150.0);
            fc.mean_straggler = rng.uniform(5.0, 20.0);
            fc.straggler_slowdown = rng.uniform(1.5, 4.0);
        }
        if (rng.chance(0.3)) {
            fc.recovery.max_attempts =
                static_cast<std::size_t>(rng.uniform_int(1, 4));
        }
        if (nodes > 1) {
            // Cluster chaos: whole-node crashes and (via the generic
            // link-outage class, which also targets registered NICs)
            // inter-node link failures. Drawn strictly after every
            // single-node dial so nodes == 1 stays byte-identical.
            if (rng.chance(0.5)) {
                fc.node_mtbf = rng.uniform(60.0, 300.0);
                fc.mean_node_repair = rng.uniform(3.0, 12.0);
            }
        }
        cfg.faults = fc; // horizon <= 0: takes the experiment horizon
    }
    if (ctrl_chaos) {
        // Control-plane chaos: leader crashes and control partitions.
        // Drawn strictly after EVERY existing axis (base, chaos, node
        // chaos) so toggling --ctrl-chaos never perturbs a historical
        // case's config or fault schedule.
        fault::FaultConfig fc2;
        if (cfg.faults) {
            fc2 = *cfg.faults;
        } else {
            // Without --chaos the schedule carries control-plane
            // faults only (crash_mtbf stays 0 = disabled).
            fc2.seed = seed ^ 0xc2b2ae3d27d4eb4fULL;
            fc2.warmup = rng.uniform(2.0, 20.0);
            fc2.crash_mtbf = 0.0;
        }
        fc2.leader_mtbf = rng.uniform(4.0, 30.0);
        fc2.mean_leader_repair = rng.uniform(1.0, 8.0);
        if (rng.chance(0.5)) {
            fc2.partition_mtbf = rng.uniform(8.0, 60.0);
            fc2.mean_partition = rng.uniform(0.5, 3.0);
        }
        cfg.faults = fc2;
    }
    cfg.num_nodes = nodes == 0 ? 1 : nodes;
    // Replica count is a pure parameter (no draw): the control plane
    // forks its own seed stream.
    cfg.ctrl_replicas = replicas == 0 ? 1 : replicas;
    return cfg;
}

FuzzResult
run_fuzz_case(const ExperimentConfig &cfg)
{
    auto system = make_system(cfg);
    engine::RunOptions opts;
    opts.slo = cfg.scenario.slo;
    opts.horizon = cfg.horizon;
    audit::AuditConfig ac;
    ac.repro_seed = cfg.seed;
    ac.repro_config = to_string(cfg.system);
    // A control-chaos-only schedule (crash_mtbf == 0) is NOT --chaos:
    // the repro line must rebuild the exact draw sequence.
    if (cfg.faults && cfg.faults->crash_mtbf > 0.0)
        ac.repro_extra = " --chaos";
    if (cfg.num_nodes > 1)
        ac.repro_extra += " --nodes=" + std::to_string(cfg.num_nodes);
    // Strictly appended after every historical field.
    if (cfg.ctrl_replicas > 1)
        ac.repro_extra +=
            " --replicas=" + std::to_string(cfg.ctrl_replicas);
    if (cfg.faults && cfg.faults->leader_mtbf > 0.0)
        ac.repro_extra += " --ctrl-chaos";
    opts.audit = std::move(ac);
    opts.faults = cfg.faults; // horizon <= 0 inherits opts.horizon
    auto trace = make_trace(cfg);
    auto run = system->run(trace, opts);
    const audit::SimAuditor *aud = system->audit();

    FuzzResult res;
    res.seed = cfg.seed;
    res.system_name = to_string(cfg.system);
    res.audit_events = aud->events_audited();
    res.audit_violations = aud->total_violations();
    res.num_requests = run.requests.size();
    res.finished = run.metrics.num_finished;
    res.unfinished = run.metrics.num_unfinished;
    res.aborted = run.metrics.num_aborted;
    for (const auto &r : run.requests)
        res.generated_tokens += r.generated;
    res.checksum = result_checksum(run.requests);
    return res;
}

FuzzResult
run_fuzz_case(std::uint64_t seed, SystemKind system)
{
    return run_fuzz_case(make_fuzz_config(seed, system));
}

FuzzSummary
run_fuzz(const FuzzOptions &opt)
{
    std::size_t total = opt.iterations * opt.systems.size();
    FuzzSummary sum;
    sum.results.resize(total);
    parallel_for(total, opt.jobs, [&](std::size_t i) {
        std::size_t iter = i / opt.systems.size();
        SystemKind system = opt.systems[i % opt.systems.size()];
        sum.results[i] = run_fuzz_case(make_fuzz_config(
            opt.base_seed + static_cast<std::uint64_t>(iter), system,
            opt.chaos, opt.nodes, opt.replicas, opt.ctrl_chaos));
    });
    for (const auto &r : sum.results) {
        sum.total_events += r.audit_events;
        sum.total_violations += r.audit_violations;
    }
    return sum;
}

SystemKind
parse_system_kind(const std::string &name)
{
    std::string k;
    for (char c : name)
        k += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (k == "windserve")
        return SystemKind::WindServe;
    if (k == "distserve")
        return SystemKind::DistServe;
    if (k == "vllm")
        return SystemKind::Vllm;
    if (k == "windserve-no-split")
        return SystemKind::WindServeNoSplit;
    if (k == "windserve-no-resche")
        return SystemKind::WindServeNoResche;
    if (k == "windserve-no-dispatch")
        return SystemKind::WindServeNoDispatch;
    throw std::invalid_argument("unknown system: " + name);
}

std::uint64_t
parse_count(const std::string &flag, const std::string &text,
            std::uint64_t min)
{
    // from_chars on an unsigned type takes digits only: no sign, no
    // whitespace, and it reports overflow instead of wrapping.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc::result_out_of_range)
        throw std::invalid_argument(flag + ": value out of range: " + text);
    if (ec != std::errc() || ptr != end)
        throw std::invalid_argument(
            flag + ": expected a non-negative integer, got '" + text + "'");
    if (v < min)
        throw std::invalid_argument(flag + ": must be at least " +
                                    std::to_string(min) + ", got " + text);
    return v;
}

double
parse_real(const std::string &flag, const std::string &text, double min,
           double max)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v))
        throw std::invalid_argument(
            flag + ": expected a finite number, got '" + text + "'");
    if (v < min || v > max) {
        char range[64];
        std::snprintf(range, sizeof range, "[%g, %g]", min, max);
        throw std::invalid_argument(flag + ": must be in " + range +
                                    ", got " + text);
    }
    return v;
}

} // namespace windserve::harness
