#include "engine/serving_system.hpp"

#include <cmath>
#include <stdexcept>

#include "engine/instance.hpp"
#include "fault/fault_injector.hpp"
#include "obs/trace_recorder.hpp"

namespace windserve::engine {

ServingSystem::ServingSystem() = default;
ServingSystem::~ServingSystem() = default;

std::uint64_t
ServingSystem::total_events_fired()
{
    return sim_.events_fired();
}

void
ServingSystem::schedule_arrivals(const std::vector<workload::Request> &trace)
{
    requests_ = trace;
    sim::SourceScope src(sim_, "arrival");
    for (workload::Request &r : requests_) {
        workload::Request *ptr = &r;
        sim_.schedule_at(r.arrival_time, [this, ptr] { on_arrival(ptr); });
    }
}

void
ServingSystem::replay(const std::vector<workload::Request> &trace,
                      double horizon)
{
    schedule_arrivals(trace);
    sim_.run_until(horizon);
}

namespace {

/** The chaos engine's `ws_fault_events_total` counters, one per kind. */
void
register_fault_counters(obs::MetricRegistry &reg,
                        const fault::FaultInjector *inj)
{
    using Get = std::uint64_t (fault::FaultInjector::*)() const;
    const std::pair<const char *, Get> kinds[] = {
        {"instance_crash", &fault::FaultInjector::instance_crashes},
        {"node_crash", &fault::FaultInjector::node_crashes},
        {"link_outage", &fault::FaultInjector::link_outages},
        {"straggler_window", &fault::FaultInjector::straggler_windows},
        {"redispatch", &fault::FaultInjector::redispatches},
        {"retry", &fault::FaultInjector::retries},
        {"abort", &fault::FaultInjector::aborts},
        {"transfer_timeout", &fault::FaultInjector::transfer_timeouts},
        {"recovery", &fault::FaultInjector::recoveries},
    };
    for (const auto &[kind, get] : kinds) {
        reg.counter("ws_fault_events_total",
                    std::string("kind=\"") + kind + "\"",
                    [inj, get] { return static_cast<double>((inj->*get)()); },
                    "Cumulative fault-engine events by kind");
    }
}

} // namespace

void
ServingSystem::instrument(const RunOptions &opts)
{
    instrumented_ = true;
    if (opts.telemetry)
        telemetry_ = std::make_unique<obs::Telemetry>(*opts.telemetry);
    if (opts.tracing)
        trace_ = std::make_unique<obs::TraceRecorder>(sim_);
    if (opts.audit)
        audit_ = std::make_unique<audit::SimAuditor>(sim_,
                                                     *opts.audit);
    if (opts.faults) {
        fault::FaultConfig fc = *opts.faults;
        if (fc.horizon <= 0.0)
            fc.horizon = opts.horizon;
        faults_ = std::make_unique<fault::FaultInjector>(
            sim_, fault::FaultPlan::generate(fc));
    }

    Attachments at;
    at.trace = trace_.get();
    at.audit = audit_.get();
    at.faults = faults_.get();
    at.telemetry = telemetry_.get();
    at.journal = telemetry_ ? telemetry_->journal() : nullptr;
    // Cross-link before attach(): recovery hooks the system registers
    // may fire audit/trace callbacks from day one, and the auditor
    // relaxes its fatal-crash checks once faults are expected.
    if (faults_) {
        faults_->attach(at);
        if (audit_)
            audit_->set_faults_enabled(true);
    }
    attach(at);
    if (telemetry_ && faults_)
        register_fault_counters(telemetry_->registry(), faults_.get());
    // Telemetry arms before the fault schedule so the self-profiler
    // wraps every event the schedule posts.
    if (telemetry_)
        telemetry_->arm(sim_);
    if (faults_)
        faults_->arm();
}

RunResult
ServingSystem::run(const std::vector<workload::Request> &trace,
                   const RunOptions &opts)
{
    if (!std::isfinite(opts.horizon) || opts.horizon <= 0.0)
        throw std::invalid_argument(
            "RunOptions (" + name() + "): horizon must be finite and > 0, "
            "got " + std::to_string(opts.horizon));
    if (!instrumented_)
        instrument(opts);
    replay(trace, opts.horizon);

    if (telemetry_)
        telemetry_->finish(sim_.now());

    RunResult out;
    out.requests = std::move(requests_);
    out.metrics = metrics::Collector(opts.slo).collect(out.requests);
    // A co-located engine does both phases, so it reports the same
    // means in both slots and Fig. 2-style comparisons stay
    // well-defined.
    double pc = 0.0, pb = 0.0, dc = 0.0, db = 0.0;
    for (std::size_t i = 0; i < num_replicas(); ++i) {
        pc += prefill(i).mean_compute_utilization();
        pb += prefill(i).mean_bandwidth_utilization();
        dc += decode(i).mean_compute_utilization();
        db += decode(i).mean_bandwidth_utilization();
    }
    const double n = static_cast<double>(num_replicas());
    out.metrics.prefill_compute_util = pc / n;
    out.metrics.prefill_bandwidth_util = pb / n;
    out.metrics.decode_compute_util = dc / n;
    out.metrics.decode_bandwidth_util = db / n;
    fill_system_metrics(out.metrics);
    if (faults_) {
        out.metrics.instance_crashes = faults_->instance_crashes();
        out.metrics.link_outages = faults_->link_outages();
        out.metrics.straggler_windows = faults_->straggler_windows();
        out.metrics.fault_redispatches = faults_->redispatches();
        out.metrics.fault_retries = faults_->retries();
        out.metrics.fault_aborts = faults_->aborts();
        out.metrics.transfer_timeouts = faults_->transfer_timeouts();
        out.metrics.fault_recoveries = faults_->recoveries();
        out.metrics.recovery_latency = faults_->recovery_latency();
    }
    out.num_gpus = num_gpus();
    if (audit_) {
        audit_->finish_run(out.requests, out.metrics.num_finished,
                           out.metrics.num_unfinished);
    }
    if (trace_) {
        // Lifecycle spans are derived from the final timestamps, after
        // the replay: emitted in request order, so the trace is a pure
        // function of (config, workload).
        for (const auto &r : out.requests)
            trace_->record_request_lifecycle(r);
        // Sampled metric series render as Perfetto counter tracks
        // alongside the spans.
        if (telemetry_)
            telemetry_->registry().merge_counter_tracks(*trace_);
    }
    return out;
}

RunResult
ServingSystem::run(const std::vector<workload::Request> &trace,
                   const metrics::SloSpec &slo, double horizon)
{
    RunOptions opts;
    opts.slo = slo;
    opts.horizon = horizon;
    return run(trace, opts);
}

} // namespace windserve::engine
