/**
 * @file
 * Shared helpers for the figure-level benchmark binaries.
 *
 * Every driver accepts:
 *   bench_figXX [num_requests] [--jobs N | -j N | --jobs=N]
 *               [--trace-out FILE] [--metrics-out FILE]
 *               [--sample-every SEC]
 * with --jobs defaulting to the machine's hardware concurrency.
 * Results are bit-identical at every jobs value (the parallel engine's
 * determinism contract); only wall-clock changes.
 *
 * --trace-out re-runs one representative cell with an attached
 * obs::TraceRecorder and writes Chrome trace-event JSON (open in
 * chrome://tracing or https://ui.perfetto.dev) plus a per-request
 * lifecycle CSV next to it. The sweep's stdout is unaffected.
 *
 * --metrics-out attaches obs::Telemetry to the same re-run and writes
 * the Prometheus exposition to FILE plus, next to it, the sampled
 * time-series CSV (`FILE.csv`), the scheduler decision journal
 * (`FILE.journal.csv` / `FILE.journal.json`) and the event-pump
 * self-profiler table (`FILE.profile.txt`). --sample-every sets the
 * sim-time sampling interval in seconds (default 1.0). When both
 * --trace-out and --metrics-out are given the single re-run carries
 * both attachments, so the sampled metrics also appear as Perfetto
 * counter tracks inside the Chrome trace.
 */
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "windserve/windserve.hpp"

namespace windserve::benchcommon {

/** Parsed command line of a figure driver. */
struct BenchArgs {
    std::size_t num_requests;
    std::size_t jobs;
    std::string trace_out;     ///< empty = tracing disabled
    std::string metrics_out;   ///< empty = telemetry disabled
    double sample_every = 1.0; ///< telemetry sampling interval (sim s)
};

/**
 * Parse the shared driver flags. A malformed value — a count that is
 * not plain digits or below 1, a sampling interval that is not one
 * finite number >= 0 — prints the problem and exits 2, as does an
 * unknown argument or a missing value (with the usage line).
 */
inline BenchArgs
parse_args(int argc, char **argv, std::size_t default_n)
{
    BenchArgs args{default_n, harness::default_jobs(), {}, {}, 1.0};
    auto jobs = [&](const std::string &v) {
        args.jobs = harness::parse_count("--jobs", v, 1);
    };
    auto sample_every = [&](const std::string &v) {
        args.sample_every =
            harness::parse_real("--sample-every", v, 0.0, 1e9);
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        try {
            if ((arg == "--jobs" || arg == "-j") && i + 1 < argc) {
                jobs(argv[++i]);
            } else if (arg.rfind("--jobs=", 0) == 0) {
                jobs(arg.substr(7));
            } else if (arg == "--trace-out" && i + 1 < argc) {
                args.trace_out = argv[++i];
            } else if (arg.rfind("--trace-out=", 0) == 0) {
                args.trace_out = arg.substr(12);
            } else if (arg == "--metrics-out" && i + 1 < argc) {
                args.metrics_out = argv[++i];
            } else if (arg.rfind("--metrics-out=", 0) == 0) {
                args.metrics_out = arg.substr(14);
            } else if (arg == "--sample-every" && i + 1 < argc) {
                sample_every(argv[++i]);
            } else if (arg.rfind("--sample-every=", 0) == 0) {
                sample_every(arg.substr(15));
            } else if (!arg.empty() && arg[0] != '-') {
                args.num_requests =
                    harness::parse_count("num_requests", arg, 1);
            } else {
                std::cerr << "usage: " << argv[0]
                          << " [num_requests] [--jobs N] [--trace-out FILE]"
                             " [--metrics-out FILE] [--sample-every SEC]\n";
                std::exit(2);
            }
        } catch (const std::invalid_argument &e) {
            std::cerr << e.what() << "\n";
            std::exit(2);
        }
    }
    return args;
}

/** Write @p text to @p path or die with a message on stderr. */
inline void
write_file_or_die(const std::string &path, const std::string &text,
                  const char *what)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << what << ": cannot open " << path << "\n";
        std::exit(1);
    }
    out << text;
}

/**
 * If the user passed --trace-out and/or --metrics-out, re-run @p cell
 * once with the corresponding attachments and write the exports.
 * Attached scheduling is identical to the plain run, so this does not
 * perturb the sweep; status goes to stderr only, keeping driver stdout
 * byte-stable.
 *
 * --trace-out FILE writes Chrome-trace JSON to FILE and the lifecycle
 * CSV to FILE.requests.csv. --metrics-out FILE writes the Prometheus
 * exposition to FILE, the time-series CSV to FILE.csv, the decision
 * journal to FILE.journal.csv / FILE.journal.json, and the
 * self-profiler table to FILE.profile.txt. With both flags the metrics
 * are also merged into the trace as Perfetto counter tracks.
 */
inline void
maybe_export(const BenchArgs &args, harness::ExperimentConfig cell)
{
    if (args.trace_out.empty() && args.metrics_out.empty())
        return;
    cell.record_trace = !args.trace_out.empty();
    if (!args.metrics_out.empty()) {
        obs::TelemetryConfig tc;
        tc.sample_every = args.sample_every;
        cell.telemetry = tc;
    }
    auto r = harness::run_experiment(cell);
    if (!args.trace_out.empty()) {
        write_file_or_die(args.trace_out, r.trace_json, "trace");
        write_file_or_die(args.trace_out + ".requests.csv",
                          r.trace_request_csv, "trace");
        std::cerr << "trace: " << r.trace_events << " events ("
                  << r.system_name << " @ " << cell.per_gpu_rate
                  << " req/s/GPU) -> " << args.trace_out << "\n";
    }
    if (!args.metrics_out.empty()) {
        write_file_or_die(args.metrics_out, r.metrics_prometheus,
                          "metrics");
        write_file_or_die(args.metrics_out + ".csv", r.metrics_csv,
                          "metrics");
        write_file_or_die(args.metrics_out + ".journal.csv",
                          r.journal_csv, "metrics");
        write_file_or_die(args.metrics_out + ".journal.json",
                          r.journal_json, "metrics");
        write_file_or_die(args.metrics_out + ".profile.txt",
                          r.profile_table, "metrics");
        std::cerr << "metrics: " << r.metric_families << " families, "
                  << r.metric_samples << " samples, "
                  << r.journal_decisions << " journal decisions ("
                  << r.system_name << " @ " << cell.per_gpu_rate
                  << " req/s/GPU) -> " << args.metrics_out << "\n";
    }
}

/** Ordered progress line on stderr: `[ 3/15] DistServe @ 2.50 done`.
 *  Reported in cell order at any thread count, so concurrent runs
 *  render identically to sequential ones. */
inline harness::SweepProgress
stderr_progress()
{
    return [](std::size_t k, std::size_t total,
              const harness::ExperimentResult &r) {
        std::cerr << "[" << (k + 1) << "/" << total << "] "
                  << r.system_name << " @ " << r.per_gpu_rate
                  << " req/s/GPU done\n";
    };
}

/** The standard 3-system sweep every figure grid starts from. */
inline harness::SweepBuilder
three_system_sweep(const harness::Scenario &scenario,
                   const std::vector<double> &rates, std::size_t n,
                   std::size_t jobs, std::uint64_t seed = 42)
{
    return harness::SweepBuilder()
        .scenario(scenario)
        .systems({harness::SystemKind::WindServe,
                  harness::SystemKind::DistServe,
                  harness::SystemKind::Vllm})
        .rates(rates)
        .num_requests(n)
        .seed(seed)
        .jobs(jobs)
        .on_progress(stderr_progress());
}

/** Run a 3-system sweep and print the Fig. 10-style latency tables. */
inline void
latency_sweep(const harness::Scenario &scenario,
              const std::vector<double> &rates, std::size_t n,
              std::size_t jobs, std::uint64_t seed = 42)
{
    auto sweep = three_system_sweep(scenario, rates, n, jobs, seed).run();

    std::cout << "-- " << scenario.name << " (SLO: TTFT "
              << scenario.slo.ttft << "s, TPOT " << scenario.slo.tpot
              << "s; " << scenario.num_gpus() << " GPUs) --\n";
    for (const char *metric :
         {"ttft p50 (s)", "ttft p99 (s)", "tpot p90 (s)", "tpot p99 (s)"}) {
        harness::TextTable t({std::string("per-GPU rate | ") + metric,
                              "WindServe", "DistServe", "vLLM"});
        for (std::size_t j = 0; j < rates.size(); ++j) {
            std::vector<std::string> row{harness::cell(rates[j], 2)};
            for (std::size_t i = 0; i < sweep.results.size(); ++i) {
                const auto &m = sweep.results[i][j].metrics;
                double v = 0.0;
                std::string name = metric;
                if (name.rfind("ttft p50", 0) == 0)
                    v = m.ttft.median();
                else if (name.rfind("ttft p99", 0) == 0)
                    v = m.ttft.p99();
                else if (name.rfind("tpot p90", 0) == 0)
                    v = m.tpot.p90();
                else
                    v = m.tpot.p99();
                row.push_back(harness::cell(v, 4));
            }
            t.add_row(row);
        }
        std::cout << t.render() << "\n";
    }
}

/** Run a 3-system sweep and print the Fig. 11-style attainment table. */
inline void
attainment_sweep(const harness::Scenario &scenario,
                 const std::vector<double> &rates, std::size_t n,
                 std::size_t jobs, std::uint64_t seed = 42)
{
    auto sweep = three_system_sweep(scenario, rates, n, jobs, seed).run();

    std::cout << "-- " << scenario.name << " --\n";
    harness::TextTable t({"per-GPU rate", "WindServe", "DistServe",
                          "vLLM"});
    for (std::size_t j = 0; j < rates.size(); ++j) {
        t.add_row({harness::cell(rates[j], 2),
                   metrics::fmt_percent(
                       sweep.results[0][j].metrics.slo_attainment),
                   metrics::fmt_percent(
                       sweep.results[1][j].metrics.slo_attainment),
                   metrics::fmt_percent(
                       sweep.results[2][j].metrics.slo_attainment)});
    }
    std::cout << t.render() << "\n";
}

/** Standard rate grids per scenario (chosen around each deployment's
 *  saturation point in this simulator; see EXPERIMENTS.md). */
inline std::vector<double>
rates_for(const std::string &scenario_name)
{
    if (scenario_name.rfind("OPT-13B", 0) == 0)
        return {2.0, 2.5, 3.0, 3.5, 4.0};
    if (scenario_name.rfind("OPT-66B", 0) == 0)
        return {0.2, 0.3, 0.4, 0.5, 0.6};
    if (scenario_name.rfind("LLaMA2-13B", 0) == 0)
        return {0.5, 0.75, 1.0, 1.25, 1.5};
    return {0.06, 0.10, 0.14, 0.18, 0.22}; // LLaMA2-70B
}

} // namespace windserve::benchcommon
