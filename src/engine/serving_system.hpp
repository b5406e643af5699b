/**
 * @file
 * Common shape of the serving systems under evaluation (WindServe,
 * DistServe, co-located vLLM): N replicas, each a prefill/decode
 * instance pair or one co-located engine, on a simulator the base
 * class owns, plus a routing function (on_arrival) for new requests.
 *
 * A system replays a workload trace to completion and hands the full
 * outcome back as one immutable RunResult value. Nothing about a
 * finished run is read through the system object afterwards, so a
 * result can be moved across threads (harness/parallel.hpp) without
 * touching the world that produced it.
 */
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/sim_auditor.hpp"
#include "engine/attachments.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/collector.hpp"
#include "obs/telemetry.hpp"
#include "simcore/simulator.hpp"
#include "workload/request.hpp"

namespace windserve::engine {

class Instance;

/**
 * Complete outcome of one serving-system run: the per-request results,
 * the aggregated metrics, and the GPU footprint used for per-GPU rate
 * normalisation. A plain value object — copyable, movable, and safe to
 * hand to another thread.
 */
struct RunResult {
    std::vector<workload::Request> requests;
    metrics::RunMetrics metrics;
    std::size_t num_gpus = 0;
};

/**
 * Everything that shapes one run() call: the SLO the metrics are
 * collected against, the horizon, and the optional per-run attachments
 * (telemetry, trace recorder, invariant auditor, chaos engine). run()
 * creates and cross-links the requested attachments in a fixed order
 * and hands them to the system in one attach() pass, so a configured
 * run is a pure function of (RunOptions, trace, seed).
 *
 * An attachment left disabled keeps the run byte-identical to a bare
 * one — tracing, auditing, and an empty fault schedule are all free
 * when off.
 */
struct RunOptions {
    /** SLO targets the collected metrics are scored against. */
    metrics::SloSpec slo{};
    /** Simulated-seconds budget for the replay. */
    double horizon = 7200.0;
    /** Attach a per-run obs::TraceRecorder (reachable via trace()). */
    bool tracing = false;
    /** Attach a fail-fast audit::SimAuditor with this config. */
    std::optional<audit::AuditConfig> audit{};
    /** Attach a fault::FaultInjector with this chaos schedule. A config
     *  with horizon <= 0 inherits the run's horizon. */
    std::optional<fault::FaultConfig> faults{};
    /** Attach per-run obs::Telemetry (metric sampling, scheduler
     *  decision journal, event-pump self-profiler). */
    std::optional<obs::TelemetryConfig> telemetry{};
    /** Ignored: the LP engine always runs on the calling thread. Kept
     *  only because the benchmark driver still sets it; the next
     *  benchmark change deletes it. */
    std::size_t intra_threads = 1;
};

/** Abstract serving system driven by the experiment harness. */
class ServingSystem
{
  public:
    virtual ~ServingSystem();

    /** Human-readable system name for tables. */
    virtual std::string name() const = 0;

    /** GPUs this deployment occupies (for per-GPU rate normalisation). */
    virtual std::size_t num_gpus() const = 0;

    /** The simulation kernel this deployment runs on. For partitioned
     *  systems (sim::LpScheduler) this is the HUB simulator. */
    sim::Simulator &simulator() { return sim_; }

    /** Events fired across ALL of the run's simulators — equal to
     *  simulator().events_fired() except for partitioned systems,
     *  which add their logical processes' queues. */
    virtual std::uint64_t total_events_fired();

    /** Replicas (instance pairs or co-located engines). */
    virtual std::size_t num_replicas() const = 0;
    /** Replica @p i 's prefill instance (a co-located engine). */
    virtual Instance &prefill(std::size_t i) = 0;
    /** Replica @p i 's decode instance; a co-located engine is its
     *  own. */
    virtual Instance &decode(std::size_t i) = 0;

    /** The attached recorder, or nullptr when tracing is off. */
    obs::TraceRecorder *trace() { return trace_.get(); }
    const obs::TraceRecorder *trace() const { return trace_.get(); }

    /** The attached auditor, or nullptr when auditing is off. */
    audit::SimAuditor *audit() { return audit_.get(); }
    const audit::SimAuditor *audit() const { return audit_.get(); }

    /** The attached injector, or nullptr when faults are off. */
    fault::FaultInjector *faults() { return faults_.get(); }
    const fault::FaultInjector *faults() const { return faults_.get(); }

    /** The attached telemetry, or nullptr when telemetry is off. */
    obs::Telemetry *telemetry() { return telemetry_.get(); }
    const obs::Telemetry *telemetry() const { return telemetry_.get(); }

    /**
     * Replay @p trace until every request finishes or the horizon
     * elapses, then collect metrics against the SLO and
     * average each utilisation over the replicas.
     * Attachments requested in @p opts are created first — telemetry,
     * tracing, audit, faults — and cross-linked (the injector reports
     * into the auditor and the recorder), then handed to attach().
     * After it the fault counters join the system's instruments, and
     * telemetry is armed before the fault schedule, so the
     * self-profiler wraps every event the schedule posts. Unfinished
     * requests remain in their last state and count against SLO
     * attainment.
     *
     * One-shot: a system instance models a single deployment lifetime;
     * the per-request results are moved into the returned value.
     *
     * @throws std::logic_error when the system has run before, before
     *         anything is validated or attached.
     * @throws std::invalid_argument when opts.horizon is not finite
     *         and > 0, or when an arrival time in @p trace is not
     *         finite or is lower than the one before it (the trace
     *         must be sorted by arrival time), before anything is
     *         attached or replayed.
     */
    RunResult run(const std::vector<workload::Request> &trace,
                  const RunOptions &opts);

    /** Convenience overload of run() for bare runs (no attachments). */
    RunResult run(const std::vector<workload::Request> &trace,
                  const metrics::SloSpec &slo = {},
                  double horizon = 7200.0);

  protected:
    // Out-of-line so std::unique_ptr<TraceRecorder> never needs the
    // complete recorder type in derived translation units.
    ServingSystem();

    /** Replay the trace on the simulation kernel: schedule_arrivals(),
     *  then run to @p horizon. */
    virtual void replay(const std::vector<workload::Request> &trace,
                        double horizon);

    /**
     * Copy @p trace (sorted by arrival time) into requests_ and call
     * on_arrival() for each request at its arrival time, in trace
     * order, under the "arrival" event source. Only the next arrival is
     * queued at a time: each one's event schedules its successor's. The
     * trace's sequence numbers are reserved here, so each arrival ties
     * at its timestamp as if all were scheduled at this call.
     */
    void schedule_arrivals(const std::vector<workload::Request> &trace);

    /** Route a new request (an element of requests_) to a replica. */
    virtual void on_arrival(workload::Request *r) = 0;

    /** Fill system-specific counters into @p m (none by default). */
    virtual void fill_system_metrics(metrics::RunMetrics &) {}

    /**
     * Hand @p at to every component (system-specific): point traced and
     * audited components at the recorder and the auditor, register the
     * fault targets (instances, channels) and recovery hooks on the
     * injector in the system's canonical order, and register the
     * system's instruments on the telemetry's MetricRegistry. Called
     * once, before anything is armed and before replay.
     */
    virtual void attach(const Attachments &at) = 0;

    /** The hub simulator. Declared first, so it outlives every
     *  component and attachment. */
    sim::Simulator sim_;

    /** The per-request results; replay() fills them and run() moves
     *  them into the RunResult. */
    std::vector<workload::Request> requests_;

  private:
    /** Build, cross-link, attach and arm the attachments @p opts asks
     *  for (see run()). */
    void instrument(const RunOptions &opts);

    /** Schedule requests_[@p i]'s arrival at sequence number
     *  @p base + @p i. */
    void schedule_arrival(std::uint64_t base, std::size_t i);

    /** Set once run() has validated its arguments; a later run()
     *  throws. */
    bool ran_ = false;
    std::unique_ptr<obs::Telemetry> telemetry_;
    std::unique_ptr<obs::TraceRecorder> trace_;
    std::unique_ptr<audit::SimAuditor> audit_;
    std::unique_ptr<fault::FaultInjector> faults_;
};

} // namespace windserve::engine
