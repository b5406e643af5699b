/**
 * @file
 * The benchmark's named workloads and the timed replay helper shared by
 * the timed and the traced runs.
 *
 * Every workload is a seeded Poisson trace replayed in simulated time
 * (an open loop in sim time, no wall-clock generator) through the
 * public harness::make_trace -> harness::make_system ->
 * ServingSystem::run() path, always at intra_threads = 1 unless a
 * diagnostic says otherwise.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/serving_system.hpp"
#include "harness/experiment.hpp"

namespace simbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One named workload: the systems it replays over one shared trace. */
struct Workload {
    std::string name;
    /** One config per replayed system, WindServe first. All of them
     *  generate the same trace (same scenario, rate, size and seed). */
    std::vector<windserve::harness::ExperimentConfig> systems;
};

/** Names accepted by make_workload(), in documentation order. */
const std::vector<std::string> &workload_names();

/** Workload @p name on trace seed @p seed. Throws std::invalid_argument
 *  for an unknown name. */
Workload make_workload(const std::string &name, std::uint64_t seed);

/** The RunOptions harness::run_experiment() would build for @p cfg. */
windserve::engine::RunOptions
run_options(const windserve::harness::ExperimentConfig &cfg);

/** Outcome of one system's run() call. */
struct RunRecord {
    std::string system;         ///< harness::to_string of the kind
    double make_system_s = 0.0; ///< wall time of harness::make_system
    double run_s = 0.0;         ///< wall time inside ServingSystem::run
    std::uint64_t events = 0;   ///< total_events_fired()
    std::uint64_t checksum = 0; ///< harness::result_checksum
    std::size_t requests = 0;
    std::size_t finished = 0;
    std::size_t unfinished = 0;
    std::size_t aborted = 0;
    double ttft_p99_s = 0.0;    ///< simulated
    double slo_attainment = 0.0;
};

/** A finished replay, kept alive so callers can read the system's
 *  attachments and counters. */
struct Replay {
    std::unique_ptr<windserve::engine::ServingSystem> system;
    windserve::engine::RunResult result;
    RunRecord record;
};

/** make_system(@p cfg), then run() it on @p trace with @p opts; both
 *  calls are timed from the outside. */
Replay replay(const windserve::harness::ExperimentConfig &cfg,
              const std::vector<windserve::workload::Request> &trace,
              const windserve::engine::RunOptions &opts);

/** Lower-case system key used in metric names ("windserve", ...). */
std::string system_key(windserve::harness::SystemKind kind);

} // namespace simbench
