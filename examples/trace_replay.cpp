/**
 * @file
 * Replay a workload trace from CSV and export full results.
 *
 * Pipeline: load (or synthesise) a trace -> run a serving system with
 * telemetry sampled every simulated second -> write per-request results
 * and the sampled metric series to CSV for offline analysis/plotting.
 *
 * Usage:
 *   trace_replay                         # synthesise a demo trace
 *   trace_replay my_trace.csv            # replay your own trace
 *   trace_replay my_trace.csv results.csv metrics.csv trace.json
 *
 * The metrics CSV is the telemetry registry's long form
 * (time,family,labels,value). The fourth output is a Chrome trace-event
 * file (request/GPU/transfer spans plus the sampled metrics as counter
 * tracks) — open it in chrome://tracing or https://ui.perfetto.dev.
 *
 * Trace schema: arrival_time,prompt_tokens,output_tokens (header and
 * '#' comments allowed; arrivals non-decreasing).
 */
#include <algorithm>
#include <fstream>
#include <iostream>

#include "windserve/windserve.hpp"

int
main(int argc, char **argv)
{
    using namespace windserve;

    std::vector<workload::Request> trace;
    if (argc > 1) {
        trace = workload::load_trace_csv(argv[1]);
        std::cout << "loaded " << trace.size() << " requests from "
                  << argv[1] << "\n";
    } else {
        workload::TraceConfig tc;
        tc.dataset = workload::DatasetConfig::sharegpt();
        tc.arrival.rate = 10.0;
        tc.num_requests = 1000;
        trace = workload::TraceBuilder(tc).build();
        std::cout << "synthesised " << trace.size()
                  << " ShareGPT-like requests at 10 req/s "
                     "(pass a CSV path to replay your own trace)\n";
    }
    auto stats = workload::TraceBuilder::stats(trace);
    std::cout << "trace: prompt avg " << stats.prompt.mean()
              << " / output avg " << stats.output.mean()
              << " / realised rate " << stats.realised_rate
              << " req/s\n\n";

    core::WindServeConfig cfg;
    core::WindServeSystem sys(cfg);

    engine::RunOptions opts;
    opts.tracing = true;
    opts.slo = metrics::SloSpec::opt_13b_sharegpt();
    obs::TelemetryConfig tel;
    tel.sample_every = 1.0;
    opts.telemetry = tel;

    auto run = sys.run(trace, opts);

    const obs::MetricRegistry &reg = sys.telemetry()->registry();
    auto peak = [&](const char *family, const char *labels) {
        const std::vector<double> &v = reg.series(family, labels);
        return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    };
    std::cout << metrics::detailed_report(run.metrics) << "\n\n";
    std::cout << "peaks: prefill queue "
              << peak("ws_queue_tokens",
                      "instance=\"prefill\",queue=\"prefill\"")
              << " tokens, decode batch "
              << peak("ws_queue_requests",
                      "instance=\"decode\",queue=\"decode_running\"")
              << " requests, decode KV occupancy "
              << metrics::fmt_percent(
                     peak("ws_kv_block_util", "instance=\"decode\""))
              << "\n";

    const char *results_path =
        argc > 2 ? argv[2] : "/tmp/windserve_results.csv";
    const char *metrics_path =
        argc > 3 ? argv[3] : "/tmp/windserve_metrics.csv";
    const char *chrome_path =
        argc > 4 ? argv[4] : "/tmp/windserve_trace.json";
    workload::save_results_csv(results_path, run.requests);
    std::ofstream mc(metrics_path);
    mc << reg.csv();

    std::ofstream chrome(chrome_path);
    sys.trace()->write_chrome_json(chrome);
    std::cout << "wrote " << results_path << ", " << metrics_path
              << " and " << chrome_path << " ("
              << sys.trace()->num_events()
              << " trace events; open in chrome://tracing)\n";
    return 0;
}
