#include "engine/serving_system.hpp"

#include "fault/fault_injector.hpp"
#include "obs/trace_recorder.hpp"
#include "simcore/simulator.hpp"

namespace windserve::engine {

ServingSystem::ServingSystem() = default;
ServingSystem::~ServingSystem() = default;

std::uint64_t
ServingSystem::total_events_fired()
{
    return simulator().events_fired();
}

void
ServingSystem::link_attachments()
{
    if (telemetry_ && faults_ && !fault_counters_registered_) {
        // The chaos-engine counters only exist once BOTH attachments do,
        // whichever attached first.
        fault_counters_registered_ = true;
        obs::MetricRegistry &reg = telemetry_->registry();
        const fault::FaultInjector *inj = faults_.get();
        const std::string help =
            "Cumulative fault-engine events by kind";
        reg.counter("ws_fault_events_total", "kind=\"instance_crash\"",
                    [inj] {
                        return static_cast<double>(
                            inj->instance_crashes());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"node_crash\"",
                    [inj] {
                        return static_cast<double>(inj->node_crashes());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"link_outage\"",
                    [inj] {
                        return static_cast<double>(inj->link_outages());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"straggler_window\"",
                    [inj] {
                        return static_cast<double>(
                            inj->straggler_windows());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"redispatch\"",
                    [inj] {
                        return static_cast<double>(inj->redispatches());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"retry\"",
                    [inj] {
                        return static_cast<double>(inj->retries());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"abort\"",
                    [inj] {
                        return static_cast<double>(inj->aborts());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"transfer_timeout\"",
                    [inj] {
                        return static_cast<double>(
                            inj->transfer_timeouts());
                    },
                    help);
        reg.counter("ws_fault_events_total", "kind=\"recovery\"",
                    [inj] {
                        return static_cast<double>(inj->recoveries());
                    },
                    help);
    }
    if (!faults_)
        return;
    if (audit_) {
        faults_->set_audit(audit_.get());
        audit_->set_faults_enabled(true);
    }
    if (trace_)
        faults_->set_trace(trace_.get());
}

obs::Telemetry *
ServingSystem::attach_telemetry(const obs::TelemetryConfig &cfg)
{
    if (!telemetry_) {
        telemetry_ = std::make_unique<obs::Telemetry>(cfg);
        wire_telemetry(*telemetry_);
        link_attachments();
        // Arm BEFORE the other attachments so the self-profiler wraps
        // every event they schedule (notably the fault-plan arming).
        telemetry_->arm(simulator());
    }
    return telemetry_.get();
}

obs::TraceRecorder *
ServingSystem::attach_trace()
{
    if (!trace_) {
        trace_ = std::make_unique<obs::TraceRecorder>(simulator());
        wire_trace(*trace_);
        link_attachments();
    }
    return trace_.get();
}

audit::SimAuditor *
ServingSystem::attach_audit(audit::AuditConfig cfg)
{
    if (!audit_) {
        audit_ = std::make_unique<audit::SimAuditor>(simulator(),
                                                     std::move(cfg));
        wire_audit(*audit_);
        link_attachments();
    }
    return audit_.get();
}

fault::FaultInjector *
ServingSystem::attach_faults(const fault::FaultConfig &cfg)
{
    if (!faults_) {
        faults_ = std::make_unique<fault::FaultInjector>(
            simulator(), fault::FaultPlan::generate(cfg));
        // Cross-link before wire_faults(): recovery hooks registered by
        // the system may fire audit/trace callbacks from day one.
        link_attachments();
        wire_faults(*faults_);
        faults_->arm();
    }
    return faults_.get();
}

RunResult
ServingSystem::run(const std::vector<workload::Request> &trace,
                   const RunOptions &opts)
{
    if (opts.telemetry)
        attach_telemetry(*opts.telemetry);
    if (opts.tracing)
        attach_trace();
    if (opts.audit)
        attach_audit(*opts.audit);
    if (opts.faults) {
        fault::FaultConfig fc = *opts.faults;
        if (fc.horizon <= 0.0)
            fc.horizon = opts.horizon;
        attach_faults(fc);
    }

    replay(trace, opts.horizon);

    if (telemetry_)
        telemetry_->finish(simulator().now());

    RunResult out;
    out.requests = take_requests();
    out.metrics = metrics::Collector(opts.slo).collect(out.requests);
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
