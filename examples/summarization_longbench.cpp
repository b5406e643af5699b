/**
 * @file
 * Summarization scenario walkthrough (the paper's §5.2 "Summarization"
 * study): LLaMA2-13B on a LongBench-like workload, highlighting the
 * mechanisms long prompts exercise — overlapped KV transfer, Dynamic
 * Prefill Dispatch under prefill overload, and stall-free rescheduling
 * with KV backups under decode memory pressure.
 *
 * Usage: summarization_longbench [per_gpu_rate] [num_requests]
 */
#include <iostream>
#include <stdexcept>

#include "windserve/windserve.hpp"

int
main(int argc, char **argv)
{
    using namespace windserve;

    double rate = 1.25;
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

    auto scenario = harness::Scenario::llama2_13b_longbench();
    std::cout << "Summarization scenario: " << scenario.name << " @ "
              << rate << " req/s/GPU, " << n << " requests\n"
              << "prompt avg ~2890 tokens -> each KV transfer moves ~"
              << (2890.0 * scenario.model.kv_bytes_per_token() / 1e9)
              << " GB; WindServe streams it during the prefill pass.\n\n";

    // Full WindServe vs DistServe vs a synchronous-transfer WindServe
    // variant to isolate the overlapped-transfer benefit on TPOT.
    workload::TraceConfig tc;
    tc.dataset = scenario.dataset;
    tc.arrival.rate = rate * static_cast<double>(scenario.num_gpus());
    tc.num_requests = n;
    tc.seed = 42;
    auto trace = workload::TraceBuilder(tc).build();

    harness::TextTable table({"configuration", "ttft p50", "ttft p99",
                              "tpot p90", "tpot p99", "decode queue p99",
                              "slo"});

    auto add = [&](const std::string &name,
                   engine::ServingSystem &sys) {
        auto m = sys.run(trace, scenario.slo).metrics;
        table.add_row({name, metrics::fmt_seconds(m.ttft.median()),
                       metrics::fmt_seconds(m.ttft.p99()),
                       metrics::fmt_seconds(m.tpot.p90()),
                       metrics::fmt_seconds(m.tpot.p99()),
                       metrics::fmt_seconds(m.decode_queueing.p99()),
                       metrics::fmt_percent(m.slo_attainment)});
    };

    core::WindServeConfig base;
    base.model = scenario.model;
    base.ttft_slo = scenario.slo.ttft;
    base.tpot_slo = scenario.slo.tpot;
    base.coordinator.thrd = 0.8 * scenario.slo.ttft;

    {
        core::WindServeSystem sys(base);
        add("WindServe (overlapped KV transfer)", sys);
        core::Pod &pod = sys.pod(0);
        std::cout << "WindServe internals: dispatches="
                  << pod.coordinator().dispatches()
                  << " reschedules=" << pod.coordinator().reschedules()
                  << " migrations=" << pod.migration().completed()
                  << " backups=" << pod.backup().backups_taken() << "\n";
    }
    {
        core::WindServeConfig sync_cfg = base;
        sync_cfg.transfer.policy = transfer::TransferPolicy::Synchronous;
        core::WindServeSystem sys(sync_cfg);
        add("WindServe (synchronous transfer)", sys);
    }
    {
        baselines::DistServeConfig ds;
        ds.model = scenario.model;
        baselines::BaselineSystem sys(ds);
        add("DistServe", sys);
    }

    std::cout << "\n" << table.render()
              << "\n(the synchronous-transfer variant shows the decode "
                 "queueing the paper attributes to DistServe's blocking "
                 "KV copy; GQA models shrink this gap — see "
                 "bench_fig10_summarization)\n";
    return 0;
}
