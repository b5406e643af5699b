/**
 * @file
 * Unit tests for the simulation kernel (clock + queue).
 */
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "simcore/simulator.hpp"

namespace ws = windserve::sim;

TEST(Simulator, StartsAtZero)
{
    ws::Simulator sim;
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
    EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunAdvancesClock)
{
    ws::Simulator sim;
    sim.schedule(5.0, [] {});
    sim.run();
    EXPECT_DOUBLE_EQ(sim.now(), 5.0);
    EXPECT_EQ(sim.events_fired(), 1u);
}

// Regression test for the stale-clock bug: now() inside a callback must
// equal the callback's own fire time, not the previous event's.
TEST(Simulator, NowIsCurrentInsideCallback)
{
    ws::Simulator sim;
    double seen_a = -1.0, seen_b = -1.0;
    sim.schedule(1.0, [&] { seen_a = sim.now(); });
    sim.schedule(2.0, [&] { seen_b = sim.now(); });
    sim.run();
    EXPECT_DOUBLE_EQ(seen_a, 1.0);
    EXPECT_DOUBLE_EQ(seen_b, 2.0);
}

// Regression: relative scheduling from inside a callback must be
// relative to the callback's fire time.
TEST(Simulator, RelativeScheduleInsideCallback)
{
    ws::Simulator sim;
    double fired_at = -1.0;
    sim.schedule(3.0, [&] {
        sim.schedule(2.0, [&] { fired_at = sim.now(); });
    });
    sim.run();
    EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, EventsChainedNeverGoBackwards)
{
    ws::Simulator sim;
    double last = -1.0;
    int fired = 0;
    std::function<void()> chain = [&] {
        EXPECT_GE(sim.now(), last);
        last = sim.now();
        if (++fired < 1000) {
            sim.schedule(0.001 * (fired % 7 + 1), chain);
            sim.schedule(0.002 * (fired % 3 + 1), chain);
        }
    };
    sim.schedule(0.0, chain);
    sim.run();
    EXPECT_GE(fired, 1000);
}

TEST(Simulator, NegativeDelayClampsToNow)
{
    ws::Simulator sim;
    double fired_at = -1.0;
    sim.schedule(2.0, [&] {
        sim.schedule(-5.0, [&] { fired_at = sim.now(); });
    });
    sim.run();
    EXPECT_DOUBLE_EQ(fired_at, 2.0);
}

TEST(Simulator, ScheduleAtPastClampsToNow)
{
    ws::Simulator sim;
    double fired_at = -1.0;
    sim.schedule(4.0, [&] {
        sim.schedule_at(1.0, [&] { fired_at = sim.now(); });
    });
    sim.run();
    EXPECT_DOUBLE_EQ(fired_at, 4.0);
}

TEST(Simulator, RunUntilStopsAtHorizon)
{
    ws::Simulator sim;
    int fired = 0;
    for (double t : {1.0, 2.0, 3.0, 4.0})
        sim.schedule(t, [&] { ++fired; });
    sim.run_until(2.5);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.pending(), 2u);
}

TEST(Simulator, RunUntilIncludesEventsExactlyAtHorizon)
{
    ws::Simulator sim;
    int fired = 0;
    sim.schedule(2.0, [&] { ++fired; });
    sim.run_until(2.0);
    EXPECT_EQ(fired, 1);
}

TEST(Simulator, StepFiresOneEvent)
{
    ws::Simulator sim;
    int fired = 0;
    sim.schedule(1.0, [&] { ++fired; });
    sim.schedule(2.0, [&] { ++fired; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsFiring)
{
    ws::Simulator sim;
    bool fired = false;
    auto id = sim.schedule(1.0, [&] { fired = true; });
    sim.cancel(id);
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, CancelInsideCallback)
{
    ws::Simulator sim;
    bool fired = false;
    auto id = sim.schedule(2.0, [&] { fired = true; });
    sim.schedule(1.0, [&] { sim.cancel(id); });
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, ExposesPoolAllocStats)
{
    ws::Simulator sim;
    int fired = 0;
    for (int i = 0; i < 100; ++i)
        sim.schedule(static_cast<double>(i), [&fired] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(sim.alloc_stats().acquired, 100u);
    // Reference-capturing lambdas this small live inline in the pool.
    EXPECT_EQ(sim.alloc_stats().heap_fallbacks, 0u);
}

TEST(Simulator, DeterministicReplay)
{
    auto run_once = [] {
        ws::Simulator sim;
        std::vector<double> trace;
        std::function<void(int)> spawn = [&](int depth) {
            trace.push_back(sim.now());
            if (depth < 6) {
                sim.schedule(0.5, [&, depth] { spawn(depth + 1); });
                sim.schedule(0.25, [&, depth] { spawn(depth + 1); });
            }
        };
        sim.schedule(0.0, [&] { spawn(0); });
        sim.run();
        return trace;
    };
    EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------
// Reserved sequence numbers
// ---------------------------------------------------------------------

// A chain in which each event schedules its successor at a reserved
// number ties exactly like the same events all scheduled up front.
TEST(SimulatorReservedSeq, ChainedEventsTieLikeUpFrontOnes)
{
    auto run_once = [](bool chained) {
        ws::Simulator sim;
        std::vector<std::string> fired;
        sim.schedule_at(1.0, [&] {
            fired.push_back("early");
            // Scheduled after the reservation, before links 1 and 2
            // fire: must lose both ties.
            sim.schedule_at(2.0, [&] { fired.push_back("late@2"); });
            sim.schedule_at(3.0, [&] { fired.push_back("late@3"); });
        });
        const double times[] = {1.0, 2.0, 3.0};
        std::uint64_t base = 0;
        std::function<void(std::size_t)> link = [&](std::size_t i) {
            sim.schedule_at_seq(times[i], base + i, [&, i] {
                if (i + 1 < 3)
                    link(i + 1);
                fired.push_back("link" + std::to_string(i));
            });
        };
        if (chained) {
            base = sim.reserve_seq(3);
            link(0);
        } else {
            for (std::size_t i = 0; i < 3; ++i)
                sim.schedule_at(times[i], [&, i] {
                    fired.push_back("link" + std::to_string(i));
                });
        }
        sim.run();
        return fired;
    };
    const auto up_front = run_once(false);
    EXPECT_EQ(up_front, (std::vector<std::string>{"early", "link0", "link1",
                                                  "late@2", "link2",
                                                  "late@3"}));
    EXPECT_EQ(run_once(true), up_front);
}

TEST(SimulatorReservedSeq, ScheduleAtSeqClampsToNow)
{
    ws::Simulator sim;
    double seen = -1.0;
    const std::uint64_t seq = sim.reserve_seq(1);
    sim.schedule(2.0, [&] {
        sim.schedule_at_seq(0.5, seq, [&] { seen = sim.now(); });
    });
    sim.run();
    EXPECT_DOUBLE_EQ(seen, 2.0);
}

// With a profiler attached, a reserved event is charged to the source
// active when it was scheduled, not to the one active at reservation.
TEST(SimulatorReservedSeq, ProfilerChargesSchedulingSource)
{
    ws::Simulator sim;
    ws::PumpProfiler prof;
    sim.set_profiler(&prof);
    std::uint64_t seq = 0;
    {
        ws::SourceScope src(sim, "reserver");
        seq = sim.reserve_seq(1);
    }
    {
        ws::SourceScope src(sim, "scheduler");
        sim.schedule_at_seq(1.0, seq, [] {});
    }
    sim.run();
    EXPECT_EQ(prof.bucket(prof.intern("scheduler")).fired, 1u);
    EXPECT_EQ(prof.bucket(prof.intern("reserver")).fired, 0u);
    EXPECT_EQ(prof.total_fired(), 1u);
}
