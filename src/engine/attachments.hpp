/**
 * @file
 * The per-run instruments a component may be attached to: trace
 * recorder, invariant auditor, chaos engine, telemetry and its
 * decision journal.
 *
 * ServingSystem::run() builds the instruments a RunOptions asks for
 * and hands one Attachments to the system's attach(), which passes it
 * as is down to every component in one pass — the pods of a multi-pod
 * cluster included, each stamping trace events and decisions with its
 * own simulator's time. Each component's attach() copies the pointers
 * it uses into members, so a hot-path check stays one member load and
 * a null pointer keeps the instrument off at zero cost.
 *
 * Forward declarations only: every layer may include this header.
 */
#pragma once

namespace windserve::audit {
class SimAuditor;
}
namespace windserve::fault {
class FaultInjector;
}
namespace windserve::obs {
class DecisionJournal;
class Telemetry;
class TraceRecorder;
}

namespace windserve::engine {

/** See file comment. Every pointer is nullable (instrument off). */
struct Attachments {
    obs::TraceRecorder *trace = nullptr;
    audit::SimAuditor *audit = nullptr;
    fault::FaultInjector *faults = nullptr;
    obs::Telemetry *telemetry = nullptr;
    /** The telemetry's decision journal. */
    obs::DecisionJournal *journal = nullptr;
};

} // namespace windserve::engine
