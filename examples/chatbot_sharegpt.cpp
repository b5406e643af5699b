/**
 * @file
 * Chatbot scenario walkthrough (the paper's §5.2 "Chatbot" study):
 * sweep OPT-13B on a ShareGPT-like workload across request rates,
 * print the full latency/attainment comparison, and emit a CSV that
 * plotting scripts can consume.
 *
 * Usage: chatbot_sharegpt [num_requests] [csv_path]
 */
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "windserve/windserve.hpp"

int
main(int argc, char **argv)
{
    using namespace windserve;

    std::size_t n = 2000;
    try {
        if (argc > 1)
            n = harness::parse_count("num_requests", argv[1], 1);
    } catch (const std::invalid_argument &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    const char *csv_path = argc > 2 ? argv[2] : nullptr;

    auto scenario = harness::Scenario::opt13b_sharegpt();
    std::cout << "Chatbot scenario: " << scenario.name << ", "
              << scenario.num_gpus() << " GPUs, SLO TTFT "
              << scenario.slo.ttft << "s / TPOT " << scenario.slo.tpot
              << "s\n\n";

    harness::TextTable table({"system", "rate", "ttft p50", "ttft p99",
                              "tpot p90", "tpot p99", "slo", "dispatch",
                              "resched", "swaps"});
    // Cells run concurrently (one thread per core); progress still
    // arrives in cell order, so this output is stable at any -j.
    auto sweep =
        harness::SweepBuilder()
            .scenario(scenario)
            .rates({2.0, 2.5, 3.0, 3.5, 4.0})
            .num_requests(n)
            .jobs(harness::default_jobs())
            .on_progress([](std::size_t k, std::size_t total,
                            const harness::ExperimentResult &r) {
                std::cout << "[" << (k + 1) << "/" << total << "] "
                          << r.system_name << " @ " << r.per_gpu_rate
                          << " req/s/GPU: "
                          << metrics::summary_line(r.metrics) << "\n";
            })
            .run();
    for (const auto &series : sweep.results) {
        for (const auto &r : series) {
            const auto &m = r.metrics;
            table.add_row({r.system_name, harness::cell(r.per_gpu_rate, 1),
                           metrics::fmt_seconds(m.ttft.median()),
                           metrics::fmt_seconds(m.ttft.p99()),
                           metrics::fmt_seconds(m.tpot.p90()),
                           metrics::fmt_seconds(m.tpot.p99()),
                           metrics::fmt_percent(m.slo_attainment),
                           std::to_string(r.dispatches),
                           std::to_string(r.reschedules),
                           std::to_string(r.decode_swap_outs)});
        }
    }
    std::cout << "\n" << table.render();

    if (csv_path) {
        std::ofstream out(csv_path);
        out << table.csv();
        std::cout << "\nwrote " << csv_path << "\n";
    }
    return 0;
}
