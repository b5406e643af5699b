/**
 * @file
 * Quickstart: serve a ShareGPT-like chatbot workload on OPT-13B with
 * WindServe, DistServe and vLLM at one request rate and compare the
 * headline metrics (TTFT / TPOT / SLO attainment).
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [per_gpu_rate] [num_requests]
 */
#include <iostream>
#include <stdexcept>

#include "windserve/windserve.hpp"

int
main(int argc, char **argv)
{
    using namespace windserve;

    double rate = 4.0;
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

    harness::Scenario scenario = harness::Scenario::opt13b_sharegpt();
    std::cout << "scenario: " << scenario.name << " | "
              << scenario.num_gpus() << " GPUs | per-GPU rate " << rate
              << " req/s | " << n << " requests\n"
              << "SLO: TTFT " << scenario.slo.ttft << "s, TPOT "
              << scenario.slo.tpot << "s\n\n";

    harness::TextTable table({"system", "ttft p50", "ttft p99", "tpot p90",
                              "tpot p99", "slo", "swaps", "dispatches",
                              "reschedules"});
    for (auto kind : {harness::SystemKind::WindServe,
                      harness::SystemKind::DistServe,
                      harness::SystemKind::Vllm}) {
        harness::ExperimentConfig cfg;
        cfg.scenario = scenario;
        cfg.system = kind;
        cfg.per_gpu_rate = rate;
        cfg.num_requests = n;
        harness::ExperimentResult r = harness::run_experiment(cfg);
        const auto &m = r.metrics;
        table.add_row({r.system_name, metrics::fmt_seconds(m.ttft.median()),
                       metrics::fmt_seconds(m.ttft.p99()),
                       metrics::fmt_seconds(m.tpot.p90()),
                       metrics::fmt_seconds(m.tpot.p99()),
                       metrics::fmt_percent(m.slo_attainment),
                       std::to_string(r.decode_swap_outs),
                       std::to_string(r.dispatches),
                       std::to_string(r.reschedules)});
    }
    std::cout << table.render();
    return 0;
}
