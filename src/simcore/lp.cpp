#include "simcore/lp.hpp"

#include <algorithm>
#include <limits>

namespace windserve::sim {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
} // namespace

std::size_t
LpScheduler::add_lp(Simulator &sim)
{
    lps_.push_back(Lp{&sim});
    return lps_.size() - 1;
}

void
LpScheduler::post(SimTime when, std::function<void()> fn)
{
    // Inside a window the hub clock stands still and due LPs run in
    // index order, so insertion order here is (LP index, post order).
    ++messages_;
    hub_.schedule_at(when, std::move(fn));
}

double
LpScheduler::effective_window() const
{
    return std::max(cfg_.lookahead, cfg_.window);
}

LpScheduler::Window
LpScheduler::compute_window(SimTime t0, double eff_window, SimTime hub_next,
                            SimTime horizon)
{
    SimTime excl = t0 + eff_window;
    if (hub_next < excl)
        excl = hub_next; // never run past an un-fired hub event
    // The window always covers t0 itself (progress guarantee — with
    // W = 0 this is lockstep pumping), and is truncated inclusively at
    // the horizon so events at exactly the horizon still fire.
    if (horizon < excl)
        return Window{horizon, horizon};
    return Window{excl, t0};
}

SimTime
LpScheduler::run_until(SimTime horizon)
{
    attach();
    struct Detach {
        LpScheduler &s;
        ~Detach() { s.detach(); }
    } detach_on_exit{*this};

    for (;;) {
        validate_top();
        const SimTime hub_next = hub_.pending() ? hub_.next_time() : kInf;
        const SimTime lp_next = heap_.empty() ? kInf : lps_[heap_[0]].key;
        const SimTime t0 = std::min(hub_next, lp_next);
        if (t0 == kInf || t0 > horizon)
            break;
        if (hub_next <= t0) {
            // Hub phase (hub-first at ties): raise the clock floor so
            // every LP reads t0 while hub handlers reach into LP-owned
            // objects, then re-key the LPs they scheduled onto.
            clock_.floor = t0;
            ++hub_phases_;
            clock_.hub_phase = true;
            hub_.run_until(t0);
            clock_.hub_phase = false;
            for (std::size_t i : clock_.touched)
                rekey(i);
            clock_.touched.clear();
            continue;
        }
        // Window phase: hub_next > t0, so some LP owns the minimum.
        hub_.notify_batch(t0); // emit telemetry ticks strictly below t0
        const Window w =
            compute_window(t0, effective_window(), hub_next, horizon);
        ++windows_;
        // Pop exactly the LPs run_window would fire anything on.
        due_.clear();
        for (; !heap_.empty(); validate_top()) {
            const SimTime k = lps_[heap_[0]].key;
            if (!(k < w.excl || k <= w.incl))
                break;
            due_.push_back(heap_[0]);
            remove_at(0);
        }
        std::sort(due_.begin(), due_.end());
        lp_runs_ += due_.size();
        for (std::size_t i : due_) {
            lps_[i].sim->run_window(w.excl, w.incl);
            rekey(i);
        }
    }
    // Settle every clock on the global last-event time so end-of-run
    // statistics (utilization denominators, trailing telemetry ticks)
    // equal what one shared queue would have reported.
    SimTime g = hub_.now();
    for (const Lp &lp : lps_)
        g = std::max(g, lp.sim->now());
    hub_.advance_to(g);
    for (Lp &lp : lps_)
        lp.sim->advance_to(g);
    return g;
}

void
LpScheduler::attach()
{
    clock_.floor = -kInf;
    heap_.clear();
    for (std::size_t i = 0; i < lps_.size(); ++i) {
        lps_[i].sim->lp_ = &clock_;
        lps_[i].sim->lp_index_ = i;
        lps_[i].sim->prof_ = hub_.prof_;
        lps_[i].pos = npos;
        rekey(i);
    }
}

void
LpScheduler::detach()
{
    // Runs on every exit from run_until, a throw included: bake the
    // floor into each LP clock, then cut the LPs loose.
    clock_.hub_phase = false;
    clock_.touched.clear();
    for (Lp &lp : lps_) {
        lp.sim->advance_to(clock_.floor);
        lp.sim->lp_ = nullptr;
        lp.sim->prof_ = nullptr;
    }
}

bool
LpScheduler::before(std::size_t a, std::size_t b) const
{
    const SimTime ka = lps_[a].key;
    const SimTime kb = lps_[b].key;
    return ka < kb || (ka == kb && a < b);
}

void
LpScheduler::place(std::size_t lp, std::size_t pos)
{
    heap_[pos] = lp;
    lps_[lp].pos = pos;
}

void
LpScheduler::sift_up(std::size_t pos)
{
    const std::size_t lp = heap_[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 2;
        if (!before(lp, heap_[parent]))
            break;
        place(heap_[parent], pos);
        pos = parent;
    }
    place(lp, pos);
}

void
LpScheduler::sift_down(std::size_t pos)
{
    const std::size_t lp = heap_[pos];
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t best = 2 * pos + 1;
        if (best >= n)
            break;
        if (best + 1 < n && before(heap_[best + 1], heap_[best]))
            ++best;
        if (!before(heap_[best], lp))
            break;
        place(heap_[best], pos);
        pos = best;
    }
    place(lp, pos);
}

void
LpScheduler::remove_at(std::size_t pos)
{
    lps_[heap_[pos]].pos = npos;
    const std::size_t last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size())
        return;
    place(last, pos);
    if (pos > 0 && before(last, heap_[(pos - 1) / 2]))
        sift_up(pos);
    else
        sift_down(pos);
}

void
LpScheduler::rekey(std::size_t i)
{
    Lp &lp = lps_[i];
    if (lp.sim->pending() == 0) {
        if (lp.pos != npos)
            remove_at(lp.pos);
        return;
    }
    const SimTime key = lp.sim->next_time();
    if (lp.pos == npos) {
        lp.key = key;
        heap_.push_back(i);
        sift_up(heap_.size() - 1);
        return;
    }
    const SimTime old = lp.key;
    lp.key = key;
    if (key < old)
        sift_up(lp.pos);
    else if (old < key)
        sift_down(lp.pos);
}

void
LpScheduler::validate_top()
{
    // Only a hub-phase cancel leaves a stale key, and it can only be
    // too low: re-keying the top until it is exact makes it the true
    // minimum, since every other key bounds its LP's time from below.
    while (!heap_.empty()) {
        const Lp &top = lps_[heap_[0]];
        if (top.sim->pending() != 0 && top.sim->next_time() == top.key)
            return;
        rekey(heap_[0]);
    }
}

} // namespace windserve::sim
