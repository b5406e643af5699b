/**
 * @file
 * Heterogeneous-GPU exploration (the paper's §7 "Future Work"):
 * "High computing-resource GPUs with lower memory bandwidth, such as
 * the NVIDIA RTX 4090, are well-suited for prefill jobs."
 *
 * This example builds custom topologies mixing GPU classes and compares
 * a homogeneous A800 PD deployment against one whose PREFILL instance
 * runs on consumer RTX 4090s (no NVLink, PCIe only), serving the same
 * ShareGPT workload. It demonstrates how the public API supports
 * arbitrary hardware descriptions beyond the paper's testbed.
 *
 * Usage: heterogeneous_cluster [per_gpu_rate] [num_requests]
 */
#include <iostream>
#include <stdexcept>

#include "windserve/windserve.hpp"

using namespace windserve;

int
main(int argc, char **argv)
{
    double rate = 2.5;
    std::size_t n = 2000;
    try {
        if (argc > 1)
            rate = harness::parse_real("per_gpu_rate", argv[1], 1e-3, 1e3);
        if (argc > 2)
            n = harness::parse_count("num_requests", argv[2], 1);
    } catch (const std::invalid_argument &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    auto scenario = harness::Scenario::opt13b_sharegpt();
    workload::TraceConfig tc;
    tc.dataset = scenario.dataset;
    tc.arrival.rate = rate * 4.0;
    tc.num_requests = n;
    tc.seed = 42;
    auto trace = workload::TraceBuilder(tc).build();

    harness::TextTable t({"deployment", "prefill GPUs", "ttft p50",
                          "ttft p99", "tpot p90", "slo"});

    // Homogeneous A800 baseline.
    {
        core::WindServeConfig cfg;
        cfg.model = scenario.model;
        cfg.ttft_slo = scenario.slo.ttft;
        cfg.tpot_slo = scenario.slo.tpot;
        cfg.coordinator.thrd = 0.8 * scenario.slo.ttft;
        core::WindServeSystem sys(cfg);
        auto m = sys.run(trace, scenario.slo).metrics;
        t.add_row({"WindServe, all A800", "2x A800",
                   metrics::fmt_seconds(m.ttft.median()),
                   metrics::fmt_seconds(m.ttft.p99()),
                   metrics::fmt_seconds(m.tpot.p90()),
                   metrics::fmt_percent(m.slo_attainment)});
    }

    // Heterogeneous: prefill on RTX 4090s. The 4090 has ~half the FP16
    // tensor throughput and half the memory bandwidth of an A800, no
    // NVLink (TP collectives over PCIe hurt more), but costs a fraction
    // of a datacenter GPU. We model it by swapping the GPU spec of the
    // topology the prefill instance's cost model sees, widening TP to 4
    // to recover prefill throughput.
    {
        core::WindServeConfig cfg;
        cfg.model = scenario.model;
        cfg.ttft_slo = scenario.slo.ttft;
        cfg.tpot_slo = scenario.slo.tpot;
        cfg.coordinator.thrd = 0.8 * scenario.slo.ttft;
        cfg.topology.gpu = hw::GpuSpec::rtx4090();
        cfg.topology.nvlink_bw = cfg.topology.pcie_bw; // no NVLink bridges
        cfg.prefill_parallelism = {4, 1};
        // Decode stays on A800-class memory: emulate by overriding the
        // decode side through cost params is not enough — instead we
        // keep the whole node 4090s here and show the consequence: the
        // 24 GB cards cannot hold OPT-13B KV per GPU pair, so decode
        // parallelism must widen too.
        cfg.decode_parallelism = {4, 1};
        cfg.topology.num_gpus = 8;
        core::WindServeSystem sys(cfg);
        auto m = sys.run(trace, scenario.slo).metrics;
        t.add_row({"WindServe, all RTX 4090", "4x 4090",
                   metrics::fmt_seconds(m.ttft.median()),
                   metrics::fmt_seconds(m.ttft.p99()),
                   metrics::fmt_seconds(m.tpot.p90()),
                   metrics::fmt_percent(m.slo_attainment)});
    }

    std::cout << "Heterogeneous-cluster exploration (paper §7 future "
                 "work), OPT-13B ShareGPT @ "
              << rate << " req/s/GPU\n\n"
              << t.render()
              << "\n(consumer cards trade per-GPU capability for cost; "
                 "the PD architecture lets each phase pick its own "
                 "hardware class — the simulator makes such what-if "
                 "studies cheap)\n";
    return 0;
}
