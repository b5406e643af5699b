/**
 * @file
 * Conservative-lookahead discrete-event scheduler over logical
 * processes (LPs).
 *
 * A run is partitioned into logical processes, each owning a private
 * sim::Simulator clock and event queue, plus one distinguished HUB
 * simulator holding everything cross-LP (arrivals, balancer, NIC
 * channels, fault timers). The scheduler advances the run as a sequence
 * of bounded-lag windows [t0, end] (Lubachevsky-style), all on the
 * calling thread:
 *
 *  - t0 is the global minimum pending timestamp across the hub and all
 *    LPs, so every event below t0 has already fired — the classic
 *    conservative lower bound on timestamp (LBTS). The scheduler reads
 *    the LP part from an indexed min-heap of LP next-event times keyed
 *    by (time, LP index), so a barrier costs O(due LPs · log LPs), not
 *    O(LPs).
 *  - If the hub itself holds the minimum, a HUB PHASE runs all hub
 *    events at t0 (hub-first at ties; hub handlers may call into
 *    LP-owned objects). No LP is touched to get there: the scheduler
 *    raises a shared CLOCK FLOOR to t0 and every LP's now() reads
 *    max(own clock, floor), so hub handlers see every LP clock at
 *    exactly t0 (or later, by the bounded staleness below) and LP
 *    schedule() calls are relative to that value. The floor only rises
 *    and stays up after the phase.
 *  - Otherwise a WINDOW PHASE pops the LPs whose next event is due in
 *    [t0, end], end = min(t0 + W, hub_next, horizon), where
 *    W = max(lookahead, window quantum), and runs only those, one
 *    after another in LP index order; idle LPs are neither
 *    run nor polled. The lookahead floor is derived from the minimum
 *    cross-LP link latency (see core::cluster_lookahead_floor); the
 *    window quantum amortizes barrier cost when the floor is tiny.
 *    W = 0 degenerates to lockstep pumping (each window fires exactly
 *    the t0-batch of each due LP).
 *
 * Heap-key invariant: when read for t0, every LP's heap key equals its
 * true next event time. Keys change in three ways, each handled:
 *  - an LP that ran a window is re-keyed after it;
 *  - a hub handler scheduling onto an LP (possibly earlier than its
 *    head, a decrease-key) lists the LP in LpClock::touched, and the
 *    touched LPs are re-keyed when the hub phase ends;
 *  - a hub handler cancelling an LP's head leaves a key below the true
 *    time, which is validated and re-keyed when it reaches the top.
 * A t0 off by any amount would shift window bounds and change results.
 *
 * The clock floor and the touch list live in an LpClock that each LP
 * simulator points to only for the duration of run_until(), along with
 * the hub's event-pump profiler (if any), so events fired inside LP
 * windows are attributed too. On every exit, a throw included, the LPs
 * are advanced to the floor and detached from both, so no LP outlives
 * its scheduler holding a pointer into it.
 * An LP event that throws ends the run at once; LPs later in index
 * order do not run that window.
 *
 * Cross-LP interactions become timestamped MESSAGES posted onto the
 * hub queue. The hub clock does not move inside a window and the due
 * LPs run in index order, so the hub heap's (time, insertion-seq)
 * tie-break delivers same-time messages in (LP index, post order) — the
 * cross-LP determinism contract. A post from inside a hub phase keeps
 * hub batch order the same way.
 *
 * Determinism: window boundaries are a pure function of queue state at
 * each barrier and message order is fixed. Hub handlers MAY observe LP
 * state up to W ahead of their own timestamp (bounded staleness); that
 * skew is part of the deterministic semantics.
 *
 * Telemetry observes and never shapes the run: the scheduler calls hub
 * notify_batch(t0) at every window boundary, so the registry samples
 * each tick τ after every event ≤ τ has fired, and possibly after pod
 * events up to one window past τ (the hub handlers' bounded staleness).
 * Window bounds do not depend on the sampling grid, so an instrumented
 * run fires the same events as a bare one.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "simcore/simulator.hpp"

namespace windserve::sim {

/** See file comment. */
class LpScheduler
{
  public:
    struct Config {
        /// Conservative floor: minimum latency of any LP->hub->LP
        /// interaction. Windows may always extend at least this far.
        double lookahead = 0.0;
        /// Bounded-lag quantum: effective window W = max(lookahead,
        /// window). 0 with 0 lookahead = lockstep pumping.
        double window = 1e-3;
    };

    /** Window bounds: fire events with time < excl or time <= incl. */
    struct Window {
        SimTime excl;
        SimTime incl;
    };

    LpScheduler(Simulator &hub, Config cfg) : hub_(hub), cfg_(cfg) {}
    LpScheduler(const LpScheduler &) = delete;
    LpScheduler &operator=(const LpScheduler &) = delete;

    /** Register an LP simulator (borrowed). @return its LP index. */
    std::size_t add_lp(Simulator &sim);

    /** Post @p fn onto the hub timeline at time @p when (clamped to
     *  the hub clock). */
    void post(SimTime when, std::function<void()> fn);

    /** True while hub events run (no LP runs). */
    bool in_hub_phase() const { return clock_.hub_phase; }

    /**
     * Drive hub + LPs to @p horizon (events at exactly the horizon
     * still fire), then settle every clock on the global last-event
     * time so end-of-run statistics match one shared clock.
     * @return that final time.
     */
    SimTime run_until(SimTime horizon);

    /** Effective window quantum W = max(lookahead, window). */
    double effective_window() const;

    /**
     * Pure window-bound computation for one barrier (exposed for unit
     * tests): @p t0 the global minimum timestamp, @p hub_next the hub's
     * next pending time (infinity when idle; > t0 in a window phase).
     */
    static Window compute_window(SimTime t0, double eff_window,
                                 SimTime hub_next, SimTime horizon);

    // ------------------------------------------------------------------
    // run counters (diagnostics; deterministic for a deterministic run)
    // ------------------------------------------------------------------
    std::uint64_t windows() const { return windows_; }
    std::uint64_t hub_phases() const { return hub_phases_; }
    std::uint64_t messages_posted() const { return messages_; }
    /** LP run_window calls: one per due LP per window. */
    std::uint64_t lp_runs() const { return lp_runs_; }
    std::size_t num_lps() const { return lps_.size(); }

  private:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    struct Lp {
        Simulator *sim;
        SimTime key = 0.0;     ///< next-event time as last keyed
        std::size_t pos = npos; ///< slot in heap_; npos when idle
    };

    void attach();
    void detach();

    // indexed binary min-heap of LP indices by (key, index)
    bool before(std::size_t a, std::size_t b) const;
    void place(std::size_t lp, std::size_t pos);
    void sift_up(std::size_t pos);
    void sift_down(std::size_t pos);
    void remove_at(std::size_t pos);
    /** Set LP @p i's key to its true next time (or drop it when idle). */
    void rekey(std::size_t i);
    /** Re-key stale tops until the heap top's key is exact. */
    void validate_top();

    Simulator &hub_;
    Config cfg_;
    std::vector<Lp> lps_;
    std::vector<std::size_t> heap_;
    /** LPs run in the current window, in index order. */
    std::vector<std::size_t> due_;
    LpClock clock_;

    std::uint64_t windows_ = 0;
    std::uint64_t hub_phases_ = 0;
    std::uint64_t messages_ = 0;
    std::uint64_t lp_runs_ = 0;
};

} // namespace windserve::sim
