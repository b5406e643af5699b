/**
 * @file
 * Unit tests for the link-level transfer channel, including the
 * append/remaining operations stall-free migration depends on.
 */
#include <gtest/gtest.h>

#include "hw/transfer_engine.hpp"

namespace hw = windserve::hw;
namespace sim = windserve::sim;

namespace {

hw::Link
test_link(double bw = 1e9, double latency = 0.0)
{
    return {hw::LinkType::PCIeSwitch, bw, latency};
}

} // namespace

TEST(Channel, SingleTransferDuration)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.0));
    bool done = false;
    ch.submit(2e9, [&] { done = true; });
    s.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(Channel, LatencyAddsToDuration)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.5));
    ch.submit(1e9, [] {});
    s.run();
    EXPECT_DOUBLE_EQ(s.now(), 1.5);
}

TEST(Channel, ZeroByteTransferTakesLatencyOnly)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.25));
    bool done = false;
    ch.submit(0.0, [&] { done = true; });
    s.run();
    EXPECT_TRUE(done);
    EXPECT_DOUBLE_EQ(s.now(), 0.25);
}

TEST(Channel, FifoSerialization)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.0));
    std::vector<int> order;
    std::vector<double> at;
    ch.submit(1e9, [&] { order.push_back(1); at.push_back(s.now()); });
    ch.submit(2e9, [&] { order.push_back(2); at.push_back(s.now()); });
    ch.submit(1e9, [&] { order.push_back(3); at.push_back(s.now()); });
    EXPECT_EQ(ch.inflight(), 3u);
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(at[0], 1.0);
    EXPECT_DOUBLE_EQ(at[1], 3.0);
    EXPECT_DOUBLE_EQ(at[2], 4.0);
    EXPECT_EQ(ch.completed(), 3u);
}

TEST(Channel, SubmitDuringIdleGapRestarts)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.0));
    double t2 = -1.0;
    ch.submit(1e9, [] {});
    s.run();
    EXPECT_FALSE(ch.busy());
    s.schedule(1.0, [&] { ch.submit(1e9, [&] { t2 = s.now(); }); });
    s.run();
    EXPECT_DOUBLE_EQ(t2, 3.0); // 1 (idle until) + 1 (wait) + 1 (xfer)
}

TEST(Channel, RemainingBytesDecreasesOverTime)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.0));
    auto id = ch.submit(4e9, [] {});
    EXPECT_DOUBLE_EQ(ch.remaining_bytes(id), 4e9);
    s.schedule(1.0, [&] {
        EXPECT_NEAR(ch.remaining_bytes(id), 3e9, 1.0);
    });
    s.schedule(3.0, [&] {
        EXPECT_NEAR(ch.remaining_bytes(id), 1e9, 1.0);
    });
    s.run();
    EXPECT_DOUBLE_EQ(ch.remaining_bytes(id), 0.0);
    EXPECT_TRUE(ch.is_done(id));
    EXPECT_FALSE(ch.is_done(id + 1)); // never issued
}

TEST(Channel, RemainingBytesOfQueuedTransferIsFull)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.0));
    ch.submit(5e9, [] {});
    auto id2 = ch.submit(3e9, [] {});
    s.schedule(2.0, [&] { EXPECT_DOUBLE_EQ(ch.remaining_bytes(id2), 3e9); });
    s.run_until(2.0);
}

TEST(Channel, AppendExtendsActiveTransfer)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.0));
    double done_at = -1.0;
    auto id = ch.submit(2e9, [&] { done_at = s.now(); });
    s.schedule(1.0, [&] { ch.append(id, 1e9); });
    s.run();
    EXPECT_DOUBLE_EQ(done_at, 3.0);
}

TEST(Channel, AppendExtendsQueuedTransfer)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.0));
    double done_at = -1.0;
    ch.submit(1e9, [] {});
    auto id = ch.submit(1e9, [&] { done_at = s.now(); });
    ch.append(id, 2e9);
    s.run();
    EXPECT_DOUBLE_EQ(done_at, 4.0);
}

TEST(Channel, MultipleAppendsAccumulate)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.0));
    double done_at = -1.0;
    auto id = ch.submit(1e9, [&] { done_at = s.now(); });
    s.schedule(0.25, [&] { ch.append(id, 0.5e9); });
    s.schedule(0.75, [&] { ch.append(id, 0.5e9); });
    s.run();
    EXPECT_DOUBLE_EQ(done_at, 2.0);
    EXPECT_DOUBLE_EQ(ch.total_bytes(), 2e9);
}

TEST(Channel, AppendAfterCompleteThrows)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.0));
    auto id = ch.submit(1e9, [] {});
    s.run();
    EXPECT_THROW(ch.append(id, 1.0), std::logic_error);
}

TEST(Channel, AppendUnknownThrows)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.0));
    EXPECT_THROW(ch.append(1234, 1.0), std::invalid_argument);
}

TEST(Channel, NegativeBytesRejected)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.0));
    EXPECT_THROW(ch.submit(-1.0, [] {}), std::invalid_argument);
    auto id = ch.submit(1e9, [] {});
    EXPECT_THROW(ch.append(id, -1.0), std::invalid_argument);
}

TEST(Channel, CallbackMaySubmitMore)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.0));
    double second_done = -1.0;
    ch.submit(1e9, [&] {
        ch.submit(1e9, [&] { second_done = s.now(); });
    });
    s.run();
    EXPECT_DOUBLE_EQ(second_done, 2.0);
}

TEST(Channel, LatencyWithAppendStillCharged)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.5));
    double done_at = -1.0;
    auto id = ch.submit(1e9, [&] { done_at = s.now(); });
    // Append while latency is still being paid.
    s.schedule(0.25, [&] { ch.append(id, 1e9); });
    s.run();
    EXPECT_DOUBLE_EQ(done_at, 2.5); // 0.5 latency + 2 GB at 1 GB/s
}

TEST(Channel, UtilizationReflectsBusyTime)
{
    sim::Simulator s;
    hw::Channel ch(s, test_link(1e9, 0.0));
    ch.submit(1e9, [] {});
    s.run();
    s.schedule(1.0, [] {}); // extend the clock to t=2 while idle
    s.run();
    EXPECT_NEAR(ch.mean_utilization(s.now()), 0.5, 1e-9);
}

TEST(Channel, RejectsNonPositiveBandwidth)
{
    sim::Simulator s;
    EXPECT_THROW(hw::Channel(s, hw::Link{hw::LinkType::NVLink, 0.0, 0.0}),
                 std::invalid_argument);
}
