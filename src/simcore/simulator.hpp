/**
 * @file
 * The simulation kernel: a clock plus an event queue.
 *
 * All subsystems (instances, transfer engine, schedulers) share one
 * Simulator and advance exclusively through scheduled events, so a whole
 * serving-cluster run is a deterministic function of (config, seed).
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/pump_profiler.hpp"

namespace windserve::sim {

/**
 * Clock state an LpScheduler lends the LP simulators it drives, for the
 * duration of its run_until() (see lp.hpp). A standalone Simulator
 * holds none and pays one pointer test for it.
 */
struct LpClock {
    /// t0 of the latest hub phase: an LP's now() never reads below it.
    SimTime floor = -std::numeric_limits<SimTime>::infinity();
    /// True while hub events run; LP schedules are then recorded.
    bool hub_phase = false;
    /// LPs scheduled onto during the current hub phase (repeats kept;
    /// re-keying an LP twice is harmless).
    std::vector<std::size_t> touched;
};

/**
 * Discrete-event simulation driver.
 *
 * Usage: schedule the first events, then run() or run_until(). Event
 * handlers schedule follow-up events — a request arrival schedules the
 * next one (engine::ServingSystem::schedule_arrivals) — and the
 * simulation terminates when the queue drains or the horizon is
 * reached.
 *
 * schedule()/schedule_at() accept any callable and store it inline in
 * the event pool when it fits (the common case allocates nothing); they
 * return a generation-checked EventHandle, so cancelling a handle whose
 * event already fired — even if its pool slot has been reused — is a
 * guaranteed no-op.
 *
 * Two opt-in observation points exist for the telemetry layer, both
 * free when unset (one pointer test on the respective path):
 *  - a batch hook invoked with the upcoming batch's timestamp BEFORE
 *    the clock advances to it, letting a sampler read piecewise-constant
 *    state at every tick that falls strictly before the batch without
 *    injecting events into the queue (so instrumented and bare runs
 *    fire the exact same event sequence);
 *  - a PumpProfiler that attributes fired events to named sources (see
 *    pump_profiler.hpp). While attached, scheduled closures are wrapped
 *    to capture the active SourceScope tag; firing order and simulated
 *    results are unchanged.
 */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Current simulated time in seconds. An LP simulator reads at least
     * its scheduler's clock floor, so in a hub phase it reads the hub's
     * t0 without having been advanced there.
     */
    SimTime now() const
    {
        return lp_ ? std::max(now_, lp_->floor) : now_;
    }

    /** Schedule @p fn to fire @p delay seconds from now (delay clamped >= 0). */
    template <class F> EventHandle schedule(SimTime delay, F &&fn)
    {
        return push_event(now() + std::max(0.0, delay),
                          std::forward<F>(fn));
    }

    /** Schedule @p fn at absolute time @p when (clamped to >= now). */
    template <class F> EventHandle schedule_at(SimTime when, F &&fn)
    {
        return push_event(std::max(when, now()), std::forward<F>(fn));
    }

    /** Reserve @p n consecutive sequence numbers for schedule_at_seq()
     *  (see EventQueue::reserve_seq). @return the first of them. */
    std::uint64_t reserve_seq(std::uint64_t n)
    {
        return queue_.reserve_seq(n);
    }

    /** schedule_at() at the reserved sequence number @p seq: @p fn
     *  ties at its timestamp as if scheduled when @p seq was
     *  reserved. */
    template <class F>
    EventHandle schedule_at_seq(SimTime when, std::uint64_t seq, F &&fn)
    {
        return push_event(std::max(when, now()), seq, std::forward<F>(fn));
    }

    /** Cancel a previously scheduled event (no-op on stale handles). */
    void cancel(EventHandle h) { queue_.cancel(h); }

    /** Run until the event queue is empty. @return final time. */
    SimTime run();

    /**
     * Run until the queue is empty or the next event is past @p horizon.
     * Events at exactly @p horizon still fire. @return final time.
     */
    SimTime run_until(SimTime horizon);

    /**
     * Drain one conservative-lookahead window (see lp.hpp): fire events
     * while the next timestamp is strictly below @p excl, or at most
     * @p incl (the window may include one inclusive boundary point, used
     * for the horizon and zero-lookahead progress). The batch hook is
     * NOT invoked — telemetry ticks are driven by the LP scheduler via
     * the hub's notify_batch() at every window boundary, so they
     * observe the windows and never bound them. @return the number of
     * events fired.
     */
    std::uint64_t run_window(SimTime excl, SimTime incl);

    /**
     * Advance the clock to @p t without firing anything, clamped so it
     * never moves backward and never passes the next pending event.
     * Used by the LP scheduler to settle LP clocks when a run ends.
     * @return the new raw clock value.
     */
    SimTime advance_to(SimTime t)
    {
        if (!queue_.empty())
            t = std::min(t, queue_.next_time());
        now_ = std::max(now_, t);
        return now_;
    }

    /** Invoke the batch hook (if any) with timestamp @p t. The telemetry
     *  hook is idempotent for repeated calls at the same t; the LP
     *  scheduler uses this to emit ticks at window boundaries. */
    void notify_batch(SimTime t)
    {
        if (batch_hook_)
            batch_hook_(t);
    }

    /** Fire at most one event. @return false if the queue was empty. */
    bool step();

    /** Number of events fired so far. */
    std::uint64_t events_fired() const { return fired_; }

    /** Live events still pending. */
    std::size_t pending() const { return queue_.size(); }

    /** Timestamp of the next pending event. Requires pending() > 0. */
    SimTime next_time() const { return queue_.next_time(); }

    /** Allocator-pressure counters of the event core. */
    const EventPool::Stats &alloc_stats() const
    {
        return queue_.alloc_stats();
    }

    // ------------------------------------------------------------------
    // telemetry observation points (nullable fast paths)
    // ------------------------------------------------------------------

    /**
     * Install a hook called with the next batch's timestamp before the
     * clock advances to it (and before any of its events fire). The
     * hook must not schedule or cancel events — it is a read-only
     * sampling point. nullptr (the default) disables it.
     */
    void set_batch_hook(std::function<void(SimTime)> hook)
    {
        batch_hook_ = std::move(hook);
    }

    /**
     * Attach a per-source event profiler. Only events scheduled AFTER
     * the attach are attributed (attach before replay begins for full
     * coverage). nullptr detaches. The profiler is borrowed, not owned.
     */
    void set_profiler(PumpProfiler *p) { prof_ = p; }
    PumpProfiler *profiler() const { return prof_; }

    /** Tag events scheduled inside the current event (inheritance). */
    std::uint16_t current_source() const { return cur_src_; }

  private:
    friend class SourceScope;
    friend class LpScheduler;

    /** Profiled wrapper: restores the ambient source tag and charges
     *  the bucket even when the callback throws (audit violations). */
    template <class Fn> struct Profiled {
        Simulator *sim;
        std::uint16_t tag;
        Fn fn;
        void operator()()
        {
            struct Frame {
                Simulator *sim;
                std::uint16_t tag;
                std::uint16_t prev;
                std::chrono::steady_clock::time_point t0;
                Frame(Simulator *s, std::uint16_t t)
                    : sim(s), tag(t), prev(s->cur_src_),
                      t0(std::chrono::steady_clock::now())
                {
                    s->cur_src_ = t;
                }
                ~Frame()
                {
                    sim->cur_src_ = prev;
                    if (sim->prof_) {
                        auto ns = std::chrono::duration_cast<
                                      std::chrono::nanoseconds>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count();
                        sim->prof_->account(
                            tag, static_cast<std::uint64_t>(ns));
                    }
                }
            } frame{sim, tag};
            fn();
        }
    };

    template <class F> EventHandle push_event(SimTime when, F &&fn)
    {
        return push_event(when, queue_.reserve_seq(1), std::forward<F>(fn));
    }

    template <class F>
    EventHandle push_event(SimTime when, std::uint64_t seq, F &&fn)
    {
        // A hub handler scheduling onto an LP may move that LP's next
        // event earlier; the scheduler re-keys the LPs listed here when
        // the hub phase ends.
        if (lp_ && lp_->hub_phase)
            lp_->touched.push_back(lp_index_);
        if (prof_) {
            return queue_.push_at_seq(
                when, seq,
                Profiled<std::decay_t<F>>{this, cur_src_,
                                          std::forward<F>(fn)});
        }
        return queue_.push_at_seq(when, seq, std::forward<F>(fn));
    }

    EventQueue queue_;
    SimTime now_ = 0.0;
    std::uint64_t fired_ = 0;
    std::function<void(SimTime)> batch_hook_;
    PumpProfiler *prof_ = nullptr;
    std::uint16_t cur_src_ = 0;
    /// Set only while an LpScheduler runs this simulator as LP
    /// lp_index_.
    LpClock *lp_ = nullptr;
    std::size_t lp_index_ = 0;
};

/**
 * RAII source tag for event attribution: every event scheduled while
 * the scope is alive (and, transitively, events those events schedule)
 * is charged to @p name. A no-op costing one pointer test when no
 * profiler is attached.
 */
class SourceScope
{
  public:
    SourceScope(Simulator &sim, const std::string &name)
        : sim_(sim), prev_(sim.cur_src_)
    {
        if (sim.prof_)
            sim_.cur_src_ = sim.prof_->intern(name);
    }
    SourceScope(Simulator &sim, const char *name)
        : sim_(sim), prev_(sim.cur_src_)
    {
        if (sim.prof_)
            sim_.cur_src_ = sim.prof_->intern(name);
    }
    ~SourceScope() { sim_.cur_src_ = prev_; }
    SourceScope(const SourceScope &) = delete;
    SourceScope &operator=(const SourceScope &) = delete;

  private:
    Simulator &sim_;
    std::uint16_t prev_;
};

} // namespace windserve::sim
