/**
 * @file
 * Conservative-lookahead parallel discrete-event scheduler (PDES).
 *
 * A run is partitioned into logical processes (LPs), each owning a
 * private sim::Simulator clock and event queue, plus one distinguished
 * HUB simulator holding everything cross-LP (arrivals, balancer, NIC
 * channels, fault timers). The scheduler advances the run as a sequence
 * of bounded-lag windows [t0, end] (Lubachevsky-style):
 *
 *  - t0 is the global minimum pending timestamp across the hub and all
 *    LPs, so every event below t0 has already fired — the classic
 *    conservative lower bound on timestamp (LBTS). The scheduler reads
 *    the LP part from an indexed min-heap of LP next-event times keyed
 *    by (time, LP index), so a barrier costs O(due LPs · log LPs), not
 *    O(LPs).
 *  - If the hub itself holds the minimum, a sequential HUB PHASE runs
 *    all hub events at t0 on the coordinator thread (hub-first at
 *    ties; hub handlers may safely call into LP-owned objects). No LP
 *    is touched to get there: the scheduler raises a shared CLOCK
 *    FLOOR to t0 and every LP's now() reads max(own clock, floor), so
 *    hub handlers see every LP clock at exactly t0 (or later, by the
 *    bounded staleness below) and LP schedule() calls are relative to
 *    that value. The floor only rises and stays up after the phase.
 *  - Otherwise a WINDOW PHASE pops the LPs whose next event is due in
 *    [t0, end], end = min(t0 + W, hub_next, next telemetry tick,
 *    horizon), where W = max(lookahead, window quantum), and runs only
 *    those, in parallel; idle LPs are neither run, drained nor polled.
 *    The lookahead floor is derived from the minimum cross-LP link
 *    latency (see core::cluster_lookahead_floor); the window quantum
 *    amortizes barrier cost when the floor is tiny. W = 0 degenerates
 *    to lockstep sequential pumping (each window fires exactly the
 *    t0-batch of each due LP).
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
 * simulator points to only for the duration of run_until(); on every
 * exit, a throw included, the LPs are advanced to the floor and
 * detached, so no LP outlives its scheduler holding a pointer into it.
 *
 * Cross-LP interactions become timestamped MESSAGES posted through
 * bounded per-LP channels: during a window each LP appends to its own
 * single-producer outbox (no locks — the barrier's release/acquire
 * pair orders it); at the barrier the coordinator drains outboxes in
 * (LP index, post order) into the hub queue, where the event heap's
 * (time, insertion-seq) tie-break turns that into a total (time, LP,
 * seq) order — the cross-LP determinism contract. Posting from inside
 * a hub phase schedules directly, preserving hub batch order.
 *
 * Determinism: window boundaries are a pure function of queue state at
 * each barrier, message drain order is fixed, and LPs share no mutable
 * state inside windows — so any thread count (including 1, which runs
 * the identical window structure on the coordinator) produces
 * byte-identical results. Hub handlers MAY observe LP state up to W
 * ahead of their own timestamp (bounded staleness); that skew is part
 * of the deterministic semantics, not a race.
 *
 * Telemetry: windows are clamped so they never fire past a pending
 * sampling tick; the coordinator calls hub notify_batch(t0) at every
 * boundary, so the registry samples each tick τ after all events ≤ τ
 * and before any event > τ — exactly the sequential hook contract.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
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
        /// window). 0 with 0 lookahead = lockstep sequential pumping.
        double window = 1e-3;
        /// Worker concurrency (coordinator included). 1 = no threads.
        std::size_t threads = 1;
        /// Telemetry sampling grid (seconds); windows never fire past
        /// a pending tick. 0 disables the clamp.
        double tick = 0.0;
        /// Bounded-channel capacity per LP outbox per window; an LP
        /// posting beyond it throws (backpressure would deadlock the
        /// barrier, so overflow is fail-fast).
        std::size_t channel_capacity = 65536;
    };

    /** Window bounds: fire events with time < excl or time <= incl. */
    struct Window {
        SimTime excl;
        SimTime incl;
    };

    LpScheduler(Simulator &hub, Config cfg);
    ~LpScheduler();
    LpScheduler(const LpScheduler &) = delete;
    LpScheduler &operator=(const LpScheduler &) = delete;

    /** Register an LP simulator (borrowed). @return its LP index. */
    std::size_t add_lp(Simulator &sim);

    /**
     * Post @p fn onto the hub timeline at time @p when (clamped to the
     * hub clock on delivery). From inside a window, appends to LP
     * @p src_lp's outbox; from a hub phase, schedules directly.
     */
    void post(std::size_t src_lp, SimTime when, std::function<void()> fn);

    /** True while hub events run on the coordinator (no LP runs). */
    bool in_hub_phase() const { return clock_.hub_phase; }

    /**
     * Drive hub + LPs to @p horizon (events at exactly the horizon
     * still fire), then settle every clock on the global last-event
     * time so end-of-run statistics are thread-count independent.
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
                                 SimTime hub_next, double tick,
                                 SimTime horizon);

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
    struct Msg {
        SimTime when;
        std::function<void()> fn;
    };
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    struct Lp {
        Simulator *sim;
        std::vector<Msg> outbox;
        SimTime key = 0.0;     ///< next-event time as last keyed
        std::size_t pos = npos; ///< slot in heap_; npos when idle
    };

    void attach();
    void detach();
    void start_workers();
    void worker_main();
    void claim_and_run();
    void run_window_parallel(Window w);
    void drain_outboxes();
    void rethrow_first_error();

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
    std::vector<std::exception_ptr> errs_;
    LpClock clock_;

    // worker pool: coordinator publishes a window by bumping epoch_
    // (release); workers spin on it (acquire), claim due_ slots from
    // next_lp_, and count down remaining_ (release) when the claim
    // pool is exhausted. The epoch/remaining pair is the only
    // synchronization LP state crosses.
    std::vector<std::thread> workers_;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::size_t> next_lp_{0};
    std::atomic<std::size_t> remaining_{0};
    std::atomic<bool> stop_{false};
    Window cur_{0.0, 0.0};
    bool workers_started_ = false;

    std::uint64_t windows_ = 0;
    std::uint64_t hub_phases_ = 0;
    std::uint64_t messages_ = 0;
    std::uint64_t lp_runs_ = 0;
};

} // namespace windserve::sim
