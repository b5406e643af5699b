/**
 * @file
 * Discrete-event priority queue used by the cluster simulator.
 *
 * Events are closures ordered by (time, insertion sequence). The
 * sequence tie-break makes simulation runs fully deterministic: two
 * events scheduled for the same instant fire in the order they were
 * scheduled, or, for an event pushed at a reserved sequence number
 * (reserve_seq), in the order of the reservation. That ordering
 * contract is load-bearing — every golden snapshot and jobs-1/N
 * bit-identity test depends on it — and is preserved exactly by this
 * implementation.
 *
 * Structure: an indexed 4-ary min-heap of 16-byte keys (time, sequence,
 * pool slot) over an EventPool that owns the closures. Compared to the
 * original binary heap of std::function entries this buys
 *  - sift steps that move small PODs instead of type-erased callables,
 *  - half the tree depth and better cache locality per level,
 *  - eager cancellation: each pool record tracks its heap position, so
 *    cancel() extracts the key immediately (O(1) generation check plus
 *    a short sift) and frees the closure on the spot. There is no lazy
 *    "cancelled" side table growing with the total event count, and
 *    empty()/next_time() are genuinely const — the heap only ever
 *    contains live events.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "simcore/event_pool.hpp"

namespace windserve::sim {

/** Simulated time in seconds. */
using SimTime = double;

/**
 * An indexed 4-ary min-heap of timestamped closures.
 *
 * cancel() takes an EventHandle (generation-checked): cancelling a
 * fired, cancelled, or otherwise stale handle is a guaranteed no-op
 * even when the underlying pool slot has been reused.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p fn to run at absolute time @p when. The callable is
     * stored inline in the event pool when it fits (no allocation).
     * @return a handle usable with cancel().
     */
    template <class F> EventHandle push(SimTime when, F &&fn)
    {
        return push_at_seq(when, seq_++, std::forward<F>(fn));
    }

    /**
     * Reserve @p n consecutive sequence numbers for events pushed later
     * with push_at_seq(). An event pushed at a reserved number ties
     * exactly as it would have if pushed now: it fires after every
     * event pushed before the reservation and before every event pushed
     * after it, at the same timestamp.
     * @return the first reserved number.
     */
    std::uint64_t reserve_seq(std::uint64_t n)
    {
        const std::uint64_t first = seq_;
        seq_ += n;
        return first;
    }

    /**
     * push() with the sequence number @p seq supplied by the caller:
     * one reserve_seq() returned, used at most once.
     */
    template <class F>
    EventHandle push_at_seq(SimTime when, std::uint64_t seq, F &&fn)
    {
        const auto pos = static_cast<std::uint32_t>(heap_.size());
        EventHandle h = pool_.acquire(std::forward<F>(fn), pos);
        heap_.push_back(Key{when, (seq << kSlotBits) | h.slot_});
        sift_up(pos);
        return h;
    }

    /**
     * Eagerly remove the event @p h refers to: its key leaves the heap
     * and its closure is destroyed immediately.
     * @return true if a live event was cancelled; false for null/stale
     *         handles (already fired or already cancelled).
     */
    bool cancel(EventHandle h)
    {
        std::uint32_t pos;
        if (!pool_.cancel(h, pos))
            return false;
        // The pool has already freed the slot; remove_at only rewrites
        // the heap positions of keys it moves, never the cancelled one.
        remove_at(pos);
        return true;
    }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of live events. */
    std::size_t size() const { return heap_.size(); }

    /** Timestamp of the next event. Requires !empty(). */
    SimTime next_time() const
    {
        if (heap_.empty())
            throw_empty("EventQueue::next_time on empty queue");
        return heap_.front().when;
    }

    /**
     * Pop and run the next event.
     * @return the time at which the event fired. Requires !empty().
     */
    SimTime pop_and_run()
    {
        if (heap_.empty())
            throw_empty("EventQueue::pop_and_run on empty queue");
        return fire_top();
    }

    /**
     * Batched same-timestamp drain: pop and run events while the head
     * of the queue is at exactly @p t — including events scheduled for
     * @p t from inside the batch, in (time, sequence) order.
     * @return the number of events fired.
     */
    std::size_t run_batch(SimTime t)
    {
        std::size_t fired = 0;
        while (!heap_.empty() && heap_.front().when == t) {
            fire_top();
            ++fired;
        }
        return fired;
    }

    /**
     * Pop and run the entire batch at the head timestamp — run_batch()
     * with the head time read out instead of passed in, fusing the
     * next_time()/run_batch() pair the simulator loop would otherwise
     * make per batch. Requires !empty().
     * @param when receives the batch's timestamp.
     * @return the number of events fired (>= 1).
     */
    std::size_t run_next_batch(SimTime &when)
    {
        if (heap_.empty())
            throw_empty("EventQueue::run_next_batch on empty queue");
        const SimTime t = heap_.front().when;
        when = t;
        std::size_t fired = 0;
        do {
            fire_top();
            ++fired;
        } while (!heap_.empty() && heap_.front().when == t);
        return fired;
    }

    /** Sequence numbers issued so far, reserved ones included: the
     *  events pushed plus the reservations not yet pushed (for
     *  diagnostics). */
    std::uint64_t total_pushed() const { return seq_; }

    /** Allocator-pressure counters of the backing pool. */
    const EventPool::Stats &alloc_stats() const { return pool_.stats(); }

  private:
    /** Pool-slot width inside Key::seq_slot (EventPool::kMaxSlots). */
    static constexpr unsigned kSlotBits = 24;

    /**
     * 16-byte heap key: everything a sift comparison needs, no pool
     * lookups. The insertion sequence (high 40 bits) and pool slot
     * (low 24) share one word; since no two events share a sequence,
     * comparing the packed word compares sequences — the slot bits can
     * never flip an ordering.
     */
    struct Key {
        SimTime when;
        std::uint64_t seq_slot;
    };

    static std::uint32_t slot_of(const Key &k)
    {
        return static_cast<std::uint32_t>(k.seq_slot) &
               ((1u << kSlotBits) - 1);
    }

    static bool earlier(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq_slot < b.seq_slot;
    }

    void place(const Key &k, std::size_t pos)
    {
        heap_[pos] = k;
        pool_.set_heap_pos(slot_of(k), static_cast<std::uint32_t>(pos));
    }

    // Hot-path definitions stay in the header: the event pump runs tens
    // of millions of these per simulation and they must inline into the
    // Simulator loop (see DESIGN.md §10).
    void sift_up(std::size_t pos)
    {
        const Key k = heap_[pos];
        while (pos > 0) {
            const std::size_t parent = (pos - 1) / 4;
            if (!earlier(k, heap_[parent]))
                break;
            place(heap_[parent], pos);
            pos = parent;
        }
        place(k, pos);
    }

    void sift_down(std::size_t pos)
    {
        const Key k = heap_[pos];
        const std::size_t n = heap_.size();
        for (;;) {
            const std::size_t first = 4 * pos + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t last = first + 4 < n ? first + 4 : n;
            for (std::size_t c = first + 1; c < last; ++c) {
                if (earlier(heap_[c], heap_[best]))
                    best = c;
            }
            if (!earlier(heap_[best], k))
                break;
            place(heap_[best], pos);
            pos = best;
        }
        place(k, pos);
    }

    /** Extract the key at @p pos, restoring the heap invariant. */
    void remove_at(std::size_t pos)
    {
        const Key last = heap_.back();
        heap_.pop_back();
        if (pos == heap_.size())
            return; // removed the tail entry
        place(last, pos);
        if (pos > 0 && earlier(heap_[pos], heap_[(pos - 1) / 4]))
            sift_up(pos);
        else
            sift_down(pos);
    }

    /** Pop the top key and fire its event (EventPool::fire handles the
     *  invalidate-before-run / retire-after-run protocol). */
    SimTime fire_top()
    {
        const Key top = heap_.front();
        remove_at(0);
        pool_.fire(slot_of(top));
        return top.when;
    }

    /** Out-of-line throw: keeps <stdexcept> machinery off the hot path. */
    [[noreturn]] static void throw_empty(const char *what);

    std::vector<Key> heap_;
    EventPool pool_;
    std::uint64_t seq_ = 0;
};

} // namespace windserve::sim
