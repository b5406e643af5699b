/**
 * @file
 * Per-run structured trace recording with Chrome-trace export.
 *
 * A TraceRecorder is owned by one ServingSystem run (no globals) and
 * has no clock of its own: every emission carries the caller's
 * simulated time, so components on different simulators (the pods of a
 * multi-pod cluster) all write into the one recorder. Events are
 * appended in emission order — so traces are bit-identical at any
 * `--jobs N` and TSan-clean under the parallel sweep engine. Components
 * hold a nullable `TraceRecorder *` and skip every emission when
 * tracing is off (the null-recorder fast path: one pointer test, zero
 * allocations), keeping untraced runs byte-identical to a build without
 * the hooks.
 *
 * Export targets:
 *  - chrome_json(): Chrome trace-event JSON (load in chrome://tracing
 *    or https://ui.perfetto.dev). Processes are instances/links
 *    (pid=instance), tracks are GPU slots / decode groups / link
 *    directions (tid).
 *  - request_csv(): the per-request lifecycle table
 *    (workload::write_results_csv schema).
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace_event.hpp"

namespace windserve::workload {
struct Request;
}

namespace windserve::obs {

/** See file comment. */
class TraceRecorder
{
  public:
    TraceRecorder() = default;
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

    // ------------------------------------------------------------------
    // event emission
    // ------------------------------------------------------------------

    /** Complete span [start, start+dur] on @p process / @p track. */
    void span(Category cat, const std::string &process,
              const std::string &track, const std::string &name,
              double start, double dur, std::vector<TraceArg> args = {});

    /** Async begin/end pair keyed by @p id (request lifecycle phases). */
    void async_span(Category cat, const std::string &process,
                    const std::string &name, std::uint64_t id, double start,
                    double end, std::vector<TraceArg> args = {});

    /** Instantaneous event at simulated time @p ts. */
    void instant(double ts, Category cat, const std::string &process,
                 const std::string &track, const std::string &name,
                 std::vector<TraceArg> args = {});

    /** Counter sample at simulated time @p ts. */
    void counter_at(double ts, const std::string &process,
                    const std::string &name, double value);

    /**
     * Derive the lifecycle spans of @p r from its recorded timestamps
     * (arrive -> prefill-queue -> prefill -> KV-transfer -> decode-queue
     * -> decode -> finish). Unfinished requests contribute only the
     * phases that completed plus an "unfinished" instant.
     */
    void record_request_lifecycle(const workload::Request &r);

    // ------------------------------------------------------------------
    // introspection & export
    // ------------------------------------------------------------------

    const std::vector<TraceEvent> &events() const { return events_; }
    std::size_t num_events() const { return events_.size(); }

    /** Events recorded in @p cat. */
    std::size_t count(Category cat) const;

    /** Full Chrome trace-event JSON document. */
    std::string chrome_json() const;
    void write_chrome_json(std::ostream &out) const;

    /** Per-request lifecycle CSV (write_results_csv schema). */
    static std::string
    request_csv(const std::vector<workload::Request> &requests);

  private:
    std::uint32_t intern_pid(const std::string &process);
    std::uint32_t intern_tid(std::uint32_t pid, const std::string &track);

    std::vector<TraceEvent> events_;

    struct Track {
        std::uint32_t pid;
        std::string name;
    };
    std::vector<std::string> processes_; ///< pid-1 -> name
    std::vector<Track> tracks_;          ///< tid-1 -> (pid, name)
    std::unordered_map<std::string, std::uint32_t> pid_by_name_;
    std::unordered_map<std::string, std::uint32_t> tid_by_key_;
};

} // namespace windserve::obs
