/**
 * @file
 * Per-run telemetry: metric sampling, decision journal, self-profiler.
 *
 * A Telemetry object is owned by one ServingSystem run (no globals) and
 * bundles the three observability pillars:
 *  - a MetricRegistry the system's components register instruments on
 *    during the system's attach() pass, sampled every `sample_every`
 *    simulated seconds;
 *  - a DecisionJournal the scheduler appends dispatch / reschedule /
 *    re-dispatch decisions to;
 *  - a sim::PumpProfiler attributing fired events (and host wall-clock)
 *    to named event sources.
 *
 * Sampling rides the Simulator's batch hook instead of scheduling its
 * own events, so an instrumented run fires the exact same event
 * sequence as a bare one: request outcomes, metrics and traces are
 * byte-identical with telemetry on or off, and the sampled series are
 * bit-identical at any `--jobs N`. In a multi-pod run the hook sits on
 * the hub simulator and the LP engine calls it at every window
 * boundary, so a sample at tick τ may read pod state up to one LP
 * window past τ (the same lag every hub handler sees); the windows
 * themselves never depend on the sampling grid.
 */
#pragma once

#include <memory>
#include <string>

#include "obs/decision_journal.hpp"
#include "obs/metric_registry.hpp"
#include "simcore/pump_profiler.hpp"

namespace windserve::sim {
class Simulator;
}

namespace windserve::obs {

/** Per-run telemetry options (engine::RunOptions::telemetry). */
struct TelemetryConfig {
    /** Sim-seconds between metric samples; <= 0 disables periodic
     *  sampling (a single end-of-run sample is always taken). */
    double sample_every = 1.0;
    /** Attach the event-pump self-profiler. */
    bool self_profile = true;
    /** Record scheduler decisions into the journal. */
    bool journal = true;
};

/** See file comment. */
class Telemetry
{
  public:
    explicit Telemetry(TelemetryConfig cfg);
    ~Telemetry();

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    const TelemetryConfig &config() const { return cfg_; }

    MetricRegistry &registry() { return registry_; }
    const MetricRegistry &registry() const { return registry_; }

    /** The journal, or nullptr when cfg.journal is off — components
     *  hold the nullable pointer (zero-cost-off, like tracing). */
    DecisionJournal *journal()
    {
        return cfg_.journal ? &journal_ : nullptr;
    }
    const DecisionJournal &journal_data() const { return journal_; }

    sim::PumpProfiler &profiler() { return profiler_; }
    const sim::PumpProfiler &profiler() const { return profiler_; }

    /**
     * Hook into @p sim: installs the batch-boundary sampler and (if
     * configured) the event-pump profiler. Call after every instrument
     * is registered and before the replay schedules its first event.
     * A partitioned system passes its hub simulator; the LP engine
     * lends the hub's profiler to every logical process for the
     * replay (simcore/lp.hpp).
     */
    void arm(sim::Simulator &sim);

    /**
     * End-of-run flush: emit the remaining sample ticks up to
     * @p final_time (plus one closing sample at @p final_time itself
     * when off-grid) and detach from the simulator.
     */
    void finish(double final_time);

    /**
     * Self-profiler report: one row per event source, sorted by fired
     * count (desc, source id tiebreak), with count and share columns.
     * @p include_wall adds host wall-clock columns (ms and ns/event) —
     * useful for humans, non-deterministic across runs; leave it off
     * for byte-identity comparisons.
     */
    std::string profile_table(bool include_wall = false) const;

    /** Fraction of fired events attributed to a named source. */
    double attributed_fraction() const
    {
        return profiler_.attributed_fraction();
    }

  private:
    void on_batch(double t);

    TelemetryConfig cfg_;
    MetricRegistry registry_;
    DecisionJournal journal_;
    sim::PumpProfiler profiler_;
    sim::Simulator *sim_ = nullptr;
    std::uint64_t next_tick_ = 0; ///< next sample index (tick k = k*dt)
    bool finished_ = false;
};

} // namespace windserve::obs
