/**
 * @file
 * Cluster-scale sweep: the same per-pod WindServe deployment replayed
 * at 8, 64 and 512 GPUs (1/8/64 nodes x 2 pods x 4 GPUs), measuring
 * simulator throughput (events/sec, wall-clock) and the cluster's
 * serving metrics at each size.
 *
 *   bench_scale [--json[=PATH]] [--jobs=J] [--requests=N] [--rate=R]
 *               [--audit] [--highwater=H] [--lowwater=L]
 *               [--spine-oversub=F]
 *
 * --json emits BENCH_scale.json (schema checked by scale_smoke.cmake;
 * the committed copy at the repo root is the release-bench baseline —
 * no tolerance gate yet, it is the first recorded figure). --requests
 * is the trace size PER POD, so every cluster size serves the same
 * per-pod load (the paper's linear scaling rule). --audit attaches the
 * fail-fast invariant auditor to every run. A malformed value prints
 * the problem and exits 2, as does an unknown argument: --jobs and
 * --requests take plain digits >= 1; --rate (req/s/GPU, in
 * [0.001, 1000]), --highwater/--lowwater (in [0, 1]) and
 * --spine-oversub (in [0, 1000]) take one finite number each.
 *
 * --spine-oversub=F adds a fourth point: the 8-node cluster rerun on
 * an oversubscribed spine — every inter-node pair overridden to
 * nic_bw / F via hw::InterNodeLink, which the cluster folds into each
 * node's egress NIC (weakest-path rule). F defaults to 4; F <= 1
 * skips the point. The cell's JSON carries `spine_oversub` so the
 * baseline gate can tell the fabrics apart.
 *
 * --highwater/--lowwater override the cluster's decode-offload
 * watermarks. The defaults here are LOWER than ClusterConfig's so the
 * cross-pod offload path actually fires at the headline rates (the
 * stock 0.85/0.60 pair never trips under the balanced default load —
 * see ROADMAP item 1).
 *
 * All serving metrics in the output are deterministic: the same seed
 * produces byte-identical figures at any --jobs. Only wall_s and the
 * derived events_per_sec vary run to run.
 */
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "windserve/windserve.hpp"

using namespace windserve;

namespace {

struct BenchConfig {
    std::size_t requests_per_pod = 400;
    double rate = 1.2;
    bool audit = false;
    // Below ClusterConfig's 0.85/0.60 stock pair on purpose: the
    // balanced default load never crosses 0.85, so the headline sweep
    // would report cross_offloads == 0 forever (ROADMAP item 1). At
    // 0.10/0.08 the decode pools' natural fluctuation trips the path
    // at the 64- and 512-GPU points (2-pod cells stay too correlated).
    double highwater = 0.10;
    double lowwater = 0.08;
    /** Spine oversubscription factor of the extra 8-node point
     *  (inter-node bandwidth = nic_bw / factor); <= 1 skips it. */
    double spine_oversub = 4.0;
};

struct ScalePoint {
    std::size_t num_nodes = 1;
    std::size_t pods_per_node = 2;
    // measured
    std::size_t gpus = 0;
    std::size_t pods = 0;
    std::size_t requests = 0;
    std::uint64_t events = 0;
    double wall_s = 0.0;
    metrics::RunMetrics metrics;
    std::uint64_t dispatches = 0;
    std::uint64_t cross_offloads = 0;
    std::uint64_t cross_redispatches = 0;
    std::uint64_t audit_events = 0;
    std::uint64_t checksum = 0; ///< order-independent per-request FNV
    double spine_oversub = 1.0; ///< 1.0 = uniform NIC fabric
};

void
run_once(const harness::ExperimentConfig &cfg, ScalePoint &pt)
{
    auto system = harness::make_system(cfg);
    engine::RunOptions opts;
    opts.slo = cfg.scenario.slo;
    opts.horizon = cfg.horizon;
    if (cfg.audit) {
        audit::AuditConfig ac;
        ac.repro_seed = cfg.seed;
        ac.repro_config = "bench_scale";
        opts.audit = std::move(ac);
    }
    auto trace = harness::make_trace(cfg);

    auto t0 = std::chrono::steady_clock::now();
    auto run = system->run(trace, opts);
    auto t1 = std::chrono::steady_clock::now();

    pt.gpus = system->num_gpus();
    pt.wall_s = std::chrono::duration<double>(t1 - t0).count();
    pt.events = system->total_events_fired();
    pt.checksum = harness::result_checksum(run.requests);
    pt.metrics = std::move(run.metrics);
    if (auto *cs = dynamic_cast<core::ClusterServeSystem *>(system.get())) {
        pt.dispatches = cs->total_dispatches();
        pt.cross_offloads = cs->cross_offloads();
        pt.cross_redispatches = cs->cross_redispatches();
    }
    if (const audit::SimAuditor *aud = system->audit())
        pt.audit_events = aud->events_audited();
}

ScalePoint
run_point(std::size_t num_nodes, const BenchConfig &bc,
          double spine_oversub = 1.0)
{
    harness::ExperimentConfig cfg;
    cfg.scenario = harness::Scenario::opt13b_sharegpt();
    cfg.system = harness::SystemKind::WindServe;
    cfg.num_nodes = num_nodes;
    cfg.pods_per_node = 2;
    cfg.per_gpu_rate = bc.rate;
    cfg.seed = 42;
    cfg.audit = bc.audit;
    cfg.offload_highwater = bc.highwater;
    cfg.offload_lowwater = bc.lowwater;
    if (spine_oversub > 1.0 && num_nodes > 1) {
        // Oversubscribed spine: every inter-node pair carries 1/F of
        // the NIC's line rate. The cluster folds these into each
        // node's egress channel via the weakest-path rule.
        const hw::TopologyConfig &tc = cfg.scenario.topology;
        for (std::size_t a = 0; a < num_nodes; ++a)
            for (std::size_t b = a + 1; b < num_nodes; ++b)
                cfg.inter_node_links.push_back(hw::InterNodeLink{
                    a, b, tc.nic_bw / spine_oversub, tc.nic_latency});
    }
    std::size_t pods = cfg.num_nodes * cfg.pods_per_node;
    cfg.num_requests = bc.requests_per_pod * pods;

    ScalePoint pt;
    pt.num_nodes = num_nodes;
    pt.pods_per_node = cfg.pods_per_node;
    pt.pods = pods;
    pt.requests = cfg.num_requests;
    pt.spine_oversub = spine_oversub > 1.0 ? spine_oversub : 1.0;
    run_once(cfg, pt);
    return pt;
}

std::string
scale_json(const std::vector<ScalePoint> &points)
{
    std::ostringstream out;
    out.precision(10);
    out << "{\n";
    out << "  \"bench\": \"scale\",\n";
    out << "  \"schema_version\": 4,\n";
    out << "  \"build\": \""
#ifdef NDEBUG
        << "optimized"
#else
        << "debug"
#endif
        << "\",\n";
    // Cores the host exposes: wall clocks taken at --jobs > 1 are only
    // meaningful relative to this (points compete for cores).
    out << "  \"hw_threads\": "
        << std::max(1u, std::thread::hardware_concurrency()) << ",\n";
    out << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ScalePoint &p = points[i];
        const metrics::RunMetrics &m = p.metrics;
        out << "    {\n";
        out << "      \"gpus\": " << p.gpus << ",\n";
        out << "      \"num_nodes\": " << p.num_nodes << ",\n";
        out << "      \"pods_per_node\": " << p.pods_per_node << ",\n";
        out << "      \"pods\": " << p.pods << ",\n";
        out << "      \"requests\": " << p.requests << ",\n";
        out << "      \"events\": " << p.events << ",\n";
        out << "      \"wall_s\": " << p.wall_s << ",\n";
        out << "      \"events_per_sec\": "
            << (p.wall_s > 0.0 ? static_cast<double>(p.events) / p.wall_s
                               : 0.0)
            << ",\n";
        out << "      \"finished\": " << m.num_finished << ",\n";
        out << "      \"unfinished\": " << m.num_unfinished << ",\n";
        out << "      \"mean_ttft_s\": " << m.ttft.mean() << ",\n";
        out << "      \"p99_ttft_s\": " << m.ttft.percentile(99.0) << ",\n";
        out << "      \"mean_tpot_s\": " << m.tpot.mean() << ",\n";
        out << "      \"slo_attainment\": " << m.slo_attainment << ",\n";
        out << "      \"makespan_s\": " << m.makespan << ",\n";
        out << "      \"dispatches\": " << p.dispatches << ",\n";
        out << "      \"cross_offloads\": " << p.cross_offloads << ",\n";
        out << "      \"cross_redispatches\": " << p.cross_redispatches
            << ",\n";
        out << "      \"audit_events\": " << p.audit_events << ",\n";
        out << "      \"checksum\": " << p.checksum << ",\n";
        out << "      \"spine_oversub\": " << p.spine_oversub << "\n";
        out << "    }" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::string json_path = "BENCH_scale.json";
    std::size_t jobs = harness::default_jobs();
    BenchConfig bc;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        try {
            if (arg == "--json") {
                json = true;
            } else if (arg.rfind("--json=", 0) == 0) {
                json = true;
                json_path = arg.substr(7);
            } else if (arg.rfind("--jobs=", 0) == 0) {
                jobs = harness::parse_count("--jobs", arg.substr(7), 1);
            } else if (arg.rfind("--requests=", 0) == 0) {
                bc.requests_per_pod =
                    harness::parse_count("--requests", arg.substr(11), 1);
            } else if (arg.rfind("--rate=", 0) == 0) {
                bc.rate = harness::parse_real("--rate", arg.substr(7),
                                              1e-3, 1e3);
            } else if (arg.rfind("--highwater=", 0) == 0) {
                bc.highwater =
                    harness::parse_real("--highwater", arg.substr(12), 0, 1);
            } else if (arg.rfind("--lowwater=", 0) == 0) {
                bc.lowwater =
                    harness::parse_real("--lowwater", arg.substr(11), 0, 1);
            } else if (arg.rfind("--spine-oversub=", 0) == 0) {
                bc.spine_oversub = harness::parse_real(
                    "--spine-oversub", arg.substr(16), 0, 1e3);
            } else if (arg == "--audit") {
                bc.audit = true;
            } else {
                std::cerr << "unknown argument: " << arg << "\n";
                return 2;
            }
        } catch (const std::invalid_argument &e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    }

    // Three uniform-fabric sizes plus (spine_oversub > 1) the 8-node
    // cluster on the oversubscribed spine.
    struct PointSpec {
        std::size_t nodes;
        double oversub;
    };
    std::vector<PointSpec> specs{{1, 1.0}, {8, 1.0}, {64, 1.0}};
    if (bc.spine_oversub > 1.0)
        specs.push_back({8, bc.spine_oversub});
    std::vector<ScalePoint> points(specs.size());
    // Points are independent runs; slot-ordered results keep the output
    // identical at any job count.
    harness::parallel_for(points.size(), jobs, [&](std::size_t i) {
        points[i] = run_point(specs[i].nodes, bc, specs[i].oversub);
    });

    std::cout << "  gpus  nodes  pods   requests   finished      events"
                 "    wall_s    Mev/s  offloads  oversub\n";
    for (const ScalePoint &p : points) {
        std::printf("%6zu %6zu %5zu %10zu %10zu %11llu %9.3f %8.2f %9llu"
                    " %8.1f\n",
                    p.gpus, p.num_nodes, p.pods, p.requests,
                    p.metrics.num_finished,
                    static_cast<unsigned long long>(p.events), p.wall_s,
                    p.wall_s > 0.0
                        ? static_cast<double>(p.events) / p.wall_s / 1e6
                        : 0.0,
                    static_cast<unsigned long long>(p.cross_offloads),
                    p.spine_oversub);
    }

    if (json) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "cannot write " << json_path << "\n";
            return 1;
        }
        out << scale_json(points);
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}
