/**
 * @file
 * Bottleneck-aware adaptation demo (the paper's §5.3, Fig. 12).
 *
 * Two deliberately imbalanced deployments of OPT-13B:
 *  - [TP-2, TP-1]: the decode instance is under-provisioned; static
 *    disaggregation becomes TPOT-bound (decode KV exhaustion, swaps).
 *  - [TP-2, TP-2]: the decode instance is over-provisioned; static
 *    disaggregation becomes TTFT-bound (prefill queuing).
 *
 * WindServe detects which phase is the bottleneck at runtime and
 * responds with the matching strategy: Dynamic Rescheduling frees
 * decode KV in the first case; Dynamic Prefill Dispatch recruits the
 * decode instance's idle compute in the second.
 *
 * Usage: bottleneck_aware [num_requests]
 */
#include <iostream>
#include <stdexcept>

#include "windserve/windserve.hpp"

using namespace windserve;

namespace {

void
show(const harness::Scenario &scenario, double rate, std::size_t n)
{
    std::cout << "=== " << scenario.name << " @ " << rate
              << " req/s/GPU ===\n";
    harness::TextTable t({"system", "ttft attain", "tpot attain", "slo",
                          "dispatches", "reschedules", "swaps",
                          "bottleneck response"});
    for (auto kind :
         {harness::SystemKind::DistServe, harness::SystemKind::WindServe}) {
        harness::ExperimentConfig ec;
        ec.scenario = scenario;
        ec.system = kind;
        ec.per_gpu_rate = rate;
        ec.num_requests = n;
        auto r = harness::run_experiment(ec);
        std::string response = "-";
        if (kind == harness::SystemKind::WindServe) {
            if (r.reschedules > r.dispatches)
                response = "Dynamic Rescheduling";
            else if (r.dispatches > 0)
                response = "Dynamic Prefill Dispatch";
        }
        t.add_row({r.system_name,
                   metrics::fmt_percent(r.metrics.ttft_attainment),
                   metrics::fmt_percent(r.metrics.tpot_attainment),
                   metrics::fmt_percent(r.metrics.slo_attainment),
                   std::to_string(r.dispatches),
                   std::to_string(r.reschedules),
                   std::to_string(r.decode_swap_outs), response});
    }
    std::cout << t.render() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t n = 2000;
    try {
        if (argc > 1)
            n = harness::parse_count("num_requests", argv[1], 1);
    } catch (const std::invalid_argument &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    std::cout << "Bottleneck-aware ability demo (paper Fig. 12)\n\n";
    // Left: decode-starved. DistServe fails on TPOT; WindServe
    // reschedules long decodes onto the prefill instance's memory.
    show(harness::Scenario::opt13b_sharegpt_small_decode(), 1.5, n);
    // Right: prefill-starved. DistServe fails on TTFT; WindServe
    // dispatches prefills into the decode instance's SBD stream.
    show(harness::Scenario::opt13b_sharegpt(), 3.0, n);
    return 0;
}
