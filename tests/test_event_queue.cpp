/**
 * @file
 * Unit tests for the discrete-event queue: ordering, cancellation,
 * generation-checked handles, allocation accounting, and a fuzz
 * equivalence check against a reference model of the original
 * lazy-cancellation binary heap.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "simcore/event_queue.hpp"

namespace ws = windserve::sim;

TEST(EventQueue, StartsEmpty)
{
    ws::EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder)
{
    ws::EventQueue q;
    std::vector<int> fired;
    q.push(3.0, [&] { fired.push_back(3); });
    q.push(1.0, [&] { fired.push_back(1); });
    q.push(2.0, [&] { fired.push_back(2); });
    while (!q.empty())
        q.pop_and_run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreaksByInsertionOrder)
{
    ws::EventQueue q;
    std::vector<int> fired;
    for (int i = 0; i < 10; ++i)
        q.push(5.0, [&fired, i] { fired.push_back(i); });
    while (!q.empty())
        q.pop_and_run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, NextTimeReportsEarliest)
{
    ws::EventQueue q;
    q.push(7.5, [] {});
    q.push(2.5, [] {});
    EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
}

TEST(EventQueue, PopReturnsFireTime)
{
    ws::EventQueue q;
    q.push(4.25, [] {});
    EXPECT_DOUBLE_EQ(q.pop_and_run(), 4.25);
}

TEST(EventQueue, CancelSkipsEvent)
{
    ws::EventQueue q;
    bool fired = false;
    auto id = q.push(1.0, [&] { fired = true; });
    q.push(2.0, [] {});
    q.cancel(id);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
    q.pop_and_run();
    EXPECT_FALSE(fired);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAllMakesEmpty)
{
    ws::EventQueue q;
    auto a = q.push(1.0, [] {});
    auto b = q.push(2.0, [] {});
    q.cancel(a);
    q.cancel(b);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelIsSafe)
{
    ws::EventQueue q;
    auto a = q.push(1.0, [] {});
    q.push(2.0, [] {});
    q.cancel(a);
    q.cancel(a);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelFiredEventIsNoop)
{
    ws::EventQueue q;
    auto a = q.push(1.0, [] {});
    q.push(2.0, [] {});
    q.pop_and_run();
    q.cancel(a); // already fired
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PushDuringCallbackIsOrdered)
{
    ws::EventQueue q;
    std::vector<double> times;
    q.push(1.0, [&] {
        times.push_back(1.0);
        q.push(1.5, [&] { times.push_back(1.5); });
        q.push(3.0, [&] { times.push_back(3.0); });
    });
    q.push(2.0, [&] { times.push_back(2.0); });
    while (!q.empty())
        q.pop_and_run();
    EXPECT_EQ(times, (std::vector<double>{1.0, 1.5, 2.0, 3.0}));
}

TEST(EventQueue, EmptyPopThrows)
{
    ws::EventQueue q;
    EXPECT_THROW(q.pop_and_run(), std::logic_error);
    EXPECT_THROW(q.next_time(), std::logic_error);
}

TEST(EventQueue, LargeRandomOrderIsSorted)
{
    ws::EventQueue q;
    std::mt19937_64 gen(99);
    std::uniform_real_distribution<double> u(0.0, 100.0);
    for (int i = 0; i < 5000; ++i)
        q.push(u(gen), [] {});
    double last = -1.0;
    while (!q.empty()) {
        double t = q.pop_and_run();
        EXPECT_GE(t, last);
        last = t;
    }
}

TEST(EventQueue, CountsTotalPushed)
{
    ws::EventQueue q;
    for (int i = 0; i < 17; ++i)
        q.push(1.0, [] {});
    EXPECT_EQ(q.total_pushed(), 17u);
}

// Regression: self-rescheduling events inside callbacks (the original
// stale-clock bug surfaced as out-of-order firing with in-callback pushes).
TEST(EventQueue, RecursivePushesStayOrdered)
{
    ws::EventQueue q;
    double last = -1.0;
    int fired = 0;
    std::mt19937_64 gen(7);
    std::uniform_real_distribution<double> u(0.0, 0.01);
    double now = 0.0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5000) {
            q.push(now + u(gen), [&] { chain(); });
            q.push(now + u(gen), [&] { chain(); });
        }
    };
    q.push(0.0, chain);
    while (!q.empty()) {
        now = q.next_time();
        double t = q.pop_and_run();
        ASSERT_GE(t, last);
        last = t;
    }
    EXPECT_GE(fired, 5000);
}

// ---------------------------------------------------------------------
// Generation-checked handles
// ---------------------------------------------------------------------

TEST(EventHandle, DefaultConstructedIsNull)
{
    ws::EventHandle h;
    EXPECT_FALSE(h.valid());
    EXPECT_FALSE(static_cast<bool>(h));
    ws::EventQueue q;
    EXPECT_FALSE(q.cancel(h)); // null handle: guaranteed no-op
}

TEST(EventHandle, PushReturnsValidHandleAndResetNulls)
{
    ws::EventQueue q;
    ws::EventHandle h = q.push(1.0, [] {});
    EXPECT_TRUE(h.valid());
    ws::EventHandle copy = h;
    EXPECT_EQ(copy, h);
    h.reset();
    EXPECT_FALSE(h.valid());
    EXPECT_NE(copy, h);
    EXPECT_TRUE(q.cancel(copy)); // reset() nulled the copy only
}

TEST(EventHandle, CancelReturnsTrueExactlyOnce)
{
    ws::EventQueue q;
    ws::EventHandle h = q.push(1.0, [] {});
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h));
    EXPECT_TRUE(q.empty());
}

TEST(EventHandle, CancelAfterFireReturnsFalse)
{
    ws::EventQueue q;
    ws::EventHandle h = q.push(1.0, [] {});
    q.pop_and_run();
    EXPECT_FALSE(q.cancel(h));
}

TEST(EventHandle, StaleHandleCannotKillSlotReuse)
{
    // Cancel frees the slot; the next push reuses it. The stale handle
    // to the first event must not cancel the unrelated second event —
    // exactly the bug class raw EventIds with slot reuse would have.
    ws::EventQueue q;
    ws::EventHandle first = q.push(1.0, [] {});
    ASSERT_TRUE(q.cancel(first));
    bool second_fired = false;
    ws::EventHandle second = q.push(2.0, [&] { second_fired = true; });
    EXPECT_FALSE(q.cancel(first)); // stale: generation mismatch
    EXPECT_EQ(q.size(), 1u);
    q.pop_and_run();
    EXPECT_TRUE(second_fired);
    EXPECT_FALSE(q.cancel(second));
}

TEST(EventHandle, SelfCancelInsideCallbackIsNoop)
{
    ws::EventQueue q;
    ws::EventHandle h;
    bool cancelled = false;
    h = q.push(1.0, [&] { cancelled = q.cancel(h); });
    q.pop_and_run();
    EXPECT_FALSE(cancelled); // firing event is already stale to cancel()
    EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------
// Batched same-timestamp draining
// ---------------------------------------------------------------------

TEST(EventQueue, RunBatchDrainsExactTimestampIncludingReentrantPushes)
{
    ws::EventQueue q;
    std::vector<int> fired;
    q.push(1.0, [&] {
        fired.push_back(0);
        q.push(1.0, [&] { fired.push_back(2); }); // same instant, mid-batch
        q.push(1.5, [&] { fired.push_back(3); }); // later: outside batch
    });
    q.push(1.0, [&] { fired.push_back(1); });
    EXPECT_EQ(q.run_batch(1.0), 3u);
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.size(), 1u); // the 1.5 event survives
}

TEST(EventQueue, RunNextBatchReportsTimeAndCount)
{
    ws::EventQueue q;
    q.push(2.0, [] {});
    q.push(2.0, [] {});
    q.push(3.0, [] {});
    double when = 0.0;
    EXPECT_EQ(q.run_next_batch(when), 2u);
    EXPECT_DOUBLE_EQ(when, 2.0);
    EXPECT_EQ(q.run_next_batch(when), 1u);
    EXPECT_DOUBLE_EQ(when, 3.0);
    EXPECT_THROW(q.run_next_batch(when), std::logic_error);
}

// ---------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------

TEST(EventQueue, SmallClosuresNeverHitTheHeap)
{
    ws::EventQueue q;
    long counter = 0;
    for (int i = 0; i < 1000; ++i)
        q.push(static_cast<double>(i), [&counter] { ++counter; });
    while (!q.empty())
        q.pop_and_run();
    EXPECT_EQ(counter, 1000);
    EXPECT_EQ(q.alloc_stats().acquired, 1000u);
    EXPECT_EQ(q.alloc_stats().heap_fallbacks, 0u);
    // 1000 concurrent events fit in ceil(1000/256) = 4 slabs.
    EXPECT_EQ(q.alloc_stats().chunk_allocs, 4u);
}

TEST(EventQueue, OversizedClosuresFallBackToHeapAndStillRun)
{
    ws::EventQueue q;
    struct Big {
        char payload[ws::EventPool::kInlineBytes + 8];
    } big{};
    big.payload[0] = 42;
    char seen = 0;
    q.push(1.0, [big, &seen] { seen = big.payload[0]; });
    EXPECT_EQ(q.alloc_stats().heap_fallbacks, 1u);
    q.pop_and_run();
    EXPECT_EQ(seen, 42);
}

TEST(EventQueue, CancelDestroysOversizedClosureImmediately)
{
    // The heap-fallback path must free the callable on cancel, not at
    // queue teardown: a shared_ptr capture's use_count proves it.
    auto token = std::make_shared<int>(7);
    struct Big {
        std::shared_ptr<int> keep;
        char pad[ws::EventPool::kInlineBytes];
    };
    ws::EventQueue q;
    auto h = q.push(1.0, [big = Big{token, {}}] { (void)big; });
    EXPECT_EQ(token.use_count(), 2);
    q.cancel(h);
    EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------------------------------
// Reserved sequence numbers
// ---------------------------------------------------------------------

TEST(EventQueueReservedSeq, ReserveReturnsFirstAndAdvancesPastAll)
{
    ws::EventQueue q;
    q.push(1.0, [] {});
    EXPECT_EQ(q.reserve_seq(3), 1u);
    EXPECT_EQ(q.reserve_seq(0), 4u);
    q.push(1.0, [] {});
    // Reserved numbers count as issued, pushed or not.
    EXPECT_EQ(q.total_pushed(), 5u);
}

// Same-time events fire in sequence order whenever they were pushed:
// two reserved slots between ordinary pushes before and after the
// reservation.
TEST(EventQueueReservedSeq, ReservedEventsInterleaveBySequence)
{
    ws::EventQueue q;
    std::vector<int> fired;
    q.push(2.0, [&] { fired.push_back(0); });
    const std::uint64_t base = q.reserve_seq(2);
    q.push(2.0, [&] { fired.push_back(3); });
    q.push_at_seq(2.0, base + 1, [&] { fired.push_back(2); });
    q.push(2.0, [&] { fired.push_back(4); });
    q.push_at_seq(2.0, base, [&] { fired.push_back(1); });
    EXPECT_EQ(q.run_batch(2.0), 5u);
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

// An event pushed late at a reserved number still beats one pushed
// earlier with a higher number, and still loses to a lower one.
TEST(EventQueueReservedSeq, LatePushedReservedEventWinsTie)
{
    ws::EventQueue q;
    std::vector<int> fired;
    q.push(1.0, [&] { fired.push_back(0); });
    const std::uint64_t seq = q.reserve_seq(1);
    q.push(1.0, [&] { fired.push_back(2); });
    q.push(0.5, [&] {
        fired.push_back(-1);
        q.push_at_seq(1.0, seq, [&] { fired.push_back(1); });
    });
    while (!q.empty())
        q.pop_and_run();
    EXPECT_EQ(fired, (std::vector<int>{-1, 0, 1, 2}));
}

TEST(EventQueueReservedSeq, CancelRemovesReservedEvent)
{
    ws::EventQueue q;
    std::vector<int> fired;
    const std::uint64_t base = q.reserve_seq(2);
    auto h = q.push_at_seq(3.0, base, [&] { fired.push_back(0); });
    q.push_at_seq(3.0, base + 1, [&] { fired.push_back(1); });
    q.push(1.0, [&] { fired.push_back(2); });
    EXPECT_TRUE(q.cancel(h));
    EXPECT_FALSE(q.cancel(h));
    EXPECT_EQ(q.size(), 2u);
    while (!q.empty())
        q.pop_and_run();
    EXPECT_EQ(fired, (std::vector<int>{2, 1}));
}

// ---------------------------------------------------------------------
// Fuzz equivalence against the original lazy-cancellation heap
// ---------------------------------------------------------------------
namespace {

/**
 * Reference model of the pre-pool event queue: a binary heap ordered by
 * (when, insertion id) with a lazy "cancelled" bitmap, dead entries
 * skipped at pop. Deliberately naive — its observable behaviour (the
 * exact sequence of fired events and times) is the contract the indexed
 * 4-ary heap must reproduce bit-for-bit.
 */
class RefQueue
{
  public:
    std::uint64_t push(double when)
    {
        std::uint64_t id = next_id_++;
        cancelled_.push_back(false);
        heap_.push(Entry{when, id});
        return id;
    }

    /** @return true if the event was live (mirrors EventQueue::cancel). */
    bool cancel(std::uint64_t id)
    {
        if (cancelled_[id])
            return false;
        cancelled_[id] = true;
        return true;
    }

    bool empty()
    {
        skip_dead();
        return heap_.empty();
    }

    /** Pop the next live event. @return (when, id). */
    std::pair<double, std::uint64_t> pop()
    {
        skip_dead();
        Entry e = heap_.top();
        heap_.pop();
        cancelled_[e.id] = true;
        return {e.when, e.id};
    }

  private:
    struct Entry {
        double when;
        std::uint64_t id;
    };
    struct Later {
        bool operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.id > b.id;
        }
    };
    void skip_dead()
    {
        while (!heap_.empty() && cancelled_[heap_.top().id])
            heap_.pop();
    }

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::vector<bool> cancelled_;
    std::uint64_t next_id_ = 0;
};

} // namespace

TEST(EventQueueFuzz, MatchesLazyHeapReferenceModel)
{
    // Random interleaving of push / cancel / pop, with a coarse time
    // grid so same-timestamp ties are common (the tie-break order is
    // the load-bearing part). The new queue must fire the identical
    // (time, id) sequence the old lazy heap would have.
    for (std::uint64_t seed : {1u, 2u, 42u, 1337u}) {
        std::mt19937_64 gen(seed);
        std::uniform_real_distribution<double> u(0.0, 1.0);

        ws::EventQueue q;
        RefQueue ref;
        std::vector<std::uint64_t> fired; // ids, in new-queue fire order
        // Outstanding (possibly stale) handles, parallel id list.
        std::vector<std::pair<ws::EventHandle, std::uint64_t>> handles;
        double now = 0.0;

        auto push_one = [&] {
            // Quantized offsets: ~8 distinct timestamps in flight.
            double t = now + std::floor(u(gen) * 8.0) / 4.0;
            std::uint64_t id = ref.push(t);
            ws::EventHandle h =
                q.push(t, [&fired, id] { fired.push_back(id); });
            handles.emplace_back(h, id);
        };

        for (int op = 0; op < 20000; ++op) {
            double r = u(gen);
            if (r < 0.55) {
                push_one();
            } else if (r < 0.80 && !handles.empty()) {
                // Cancel a random handle — live, fired, or already
                // cancelled; both sides must agree on which it was.
                std::size_t i = static_cast<std::size_t>(
                    u(gen) * static_cast<double>(handles.size()));
                i = std::min(i, handles.size() - 1);
                ASSERT_EQ(q.cancel(handles[i].first),
                          ref.cancel(handles[i].second));
            } else if (!q.empty()) {
                ASSERT_FALSE(ref.empty());
                std::size_t before = fired.size();
                double t = q.pop_and_run();
                auto [rt, rid] = ref.pop();
                ASSERT_EQ(t, rt) << "seed " << seed << " op " << op;
                ASSERT_EQ(fired.size(), before + 1);
                ASSERT_EQ(fired.back(), rid)
                    << "seed " << seed << " op " << op;
                now = t;
            }
        }
        // Drain to empty: the full remaining order must match too.
        while (!q.empty()) {
            ASSERT_FALSE(ref.empty());
            double t = q.pop_and_run();
            auto [rt, rid] = ref.pop();
            ASSERT_EQ(t, rt);
            ASSERT_EQ(fired.back(), rid);
        }
        EXPECT_TRUE(ref.empty());
        EXPECT_EQ(q.alloc_stats().acquired, handles.size());
    }
}
