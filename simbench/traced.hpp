/**
 * @file
 * The traced run: per-layer figures of one workload, measured apart
 * from the timed runs.
 *
 * Wall time is charged to layers through the public obs::Telemetry
 * self-profiler (self_profile on, journal off, no periodic sampling);
 * its per-source buckets fold into layers by source name.
 * Deterministic counters come from the systems' public getters
 * (ClusterServeSystem::lp() / ctrl() and friends) and RunMetrics.
 * Diagnostics replay the workload with one attachment toggled, and
 * every replay's checksum is reported so the caller can gate it
 * against the untraced run.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace simbench {

struct TracedResult {
    /** Per-layer metric name -> value. */
    std::map<std::string, double> metrics;
    /** Every replay the traced run made: a label naming its
     *  attachments ("plain", "telemetry", ...) and its record. */
    std::vector<std::pair<std::string, RunRecord>> replays;
    /** Failed self-checks (unknown source names, low attribution,
     *  counts that differ between runs of one seed). */
    std::vector<std::string> errors;
};

/** Traced run of @p w; repeats the profiled replay until @p seconds of
 *  wall time have passed (at least twice). */
TracedResult traced_run(const Workload &w, double seconds);

} // namespace simbench
