/**
 * @file
 * Unit + property tests for the paged KV block manager.
 */
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "kvcache/block_manager.hpp"
#include "simcore/rng.hpp"

namespace kv = windserve::kvcache;

TEST(BlockManager, BlocksForRoundsUp)
{
    kv::BlockManager bm(100, 16);
    EXPECT_EQ(bm.blocks_for(0), 0u);
    EXPECT_EQ(bm.blocks_for(1), 1u);
    EXPECT_EQ(bm.blocks_for(16), 1u);
    EXPECT_EQ(bm.blocks_for(17), 2u);
    EXPECT_EQ(bm.blocks_for(160), 10u);
}

TEST(BlockManager, AllocateAndRelease)
{
    kv::BlockManager bm(10, 16);
    EXPECT_TRUE(bm.allocate(1, 40)); // 3 blocks
    EXPECT_EQ(bm.used_blocks(), 3u);
    EXPECT_EQ(bm.tokens_of(1), 40u);
    EXPECT_EQ(bm.blocks_of(1), 3u);
    bm.release(1);
    EXPECT_EQ(bm.used_blocks(), 0u);
    EXPECT_FALSE(bm.holds(1));
}

TEST(BlockManager, AllocateFailsWhenFullAndChangesNothing)
{
    kv::BlockManager bm(2, 16);
    EXPECT_TRUE(bm.allocate(1, 32));
    EXPECT_FALSE(bm.allocate(2, 1));
    EXPECT_FALSE(bm.holds(2));
    EXPECT_EQ(bm.used_blocks(), 2u);
}

TEST(BlockManager, DoubleAllocateThrows)
{
    kv::BlockManager bm(10, 16);
    bm.allocate(1, 16);
    EXPECT_THROW(bm.allocate(1, 16), std::logic_error);
}

TEST(BlockManager, GrowWithinBlockIsFree)
{
    kv::BlockManager bm(10, 16);
    bm.allocate(1, 10);
    EXPECT_TRUE(bm.grow(1, 16));
    EXPECT_EQ(bm.used_blocks(), 1u);
}

TEST(BlockManager, GrowAcrossBlockBoundaryTakesBlock)
{
    kv::BlockManager bm(10, 16);
    bm.allocate(1, 16);
    EXPECT_TRUE(bm.grow(1, 17));
    EXPECT_EQ(bm.used_blocks(), 2u);
    EXPECT_EQ(bm.tokens_of(1), 17u);
}

TEST(BlockManager, GrowFailsLeavesAllocationIntact)
{
    kv::BlockManager bm(2, 16);
    bm.allocate(1, 32);
    EXPECT_FALSE(bm.grow(1, 33));
    EXPECT_EQ(bm.tokens_of(1), 32u);
    EXPECT_EQ(bm.used_blocks(), 2u);
}

TEST(BlockManager, GrowUnknownThrows)
{
    kv::BlockManager bm(10, 16);
    EXPECT_THROW(bm.grow(9, 5), std::logic_error);
}

TEST(BlockManager, ShrinkThrows)
{
    kv::BlockManager bm(10, 16);
    bm.allocate(1, 32);
    EXPECT_THROW(bm.grow(1, 16), std::logic_error);
}

TEST(BlockManager, ReleaseUnknownIsNoop)
{
    kv::BlockManager bm(10, 16);
    bm.release(42);
    EXPECT_EQ(bm.used_blocks(), 0u);
}

TEST(BlockManager, OccupancyFraction)
{
    kv::BlockManager bm(10, 16);
    EXPECT_DOUBLE_EQ(bm.occupancy(), 0.0);
    bm.allocate(1, 80); // 5 blocks
    EXPECT_DOUBLE_EQ(bm.occupancy(), 0.5);
}

TEST(BlockManager, CanAllocateChecksFreeBlocks)
{
    kv::BlockManager bm(4, 16);
    bm.allocate(1, 48);
    EXPECT_TRUE(bm.can_allocate(16));
    EXPECT_FALSE(bm.can_allocate(17));
}

TEST(BlockManager, ZeroBlockSizeThrows)
{
    EXPECT_THROW(kv::BlockManager(10, 0), std::invalid_argument);
}

TEST(BlockManager, TotalTokensTracked)
{
    kv::BlockManager bm(100, 16);
    bm.allocate(1, 30);
    bm.allocate(2, 50);
    EXPECT_EQ(bm.total_tokens(), 80u);
    bm.grow(2, 60);
    EXPECT_EQ(bm.total_tokens(), 90u);
    bm.release(1);
    EXPECT_EQ(bm.total_tokens(), 60u);
}

TEST(BlockManagerHandle, GrowThroughHandle)
{
    kv::BlockManager bm(10, 16);
    auto h = bm.allocate(1, 16);
    ASSERT_TRUE(h);
    EXPECT_EQ(bm.find(1)->slot, h->slot);
    EXPECT_TRUE(bm.grow(*h, 1, 17));
    EXPECT_EQ(bm.tokens_of(1), 17u);
    EXPECT_EQ(bm.used_blocks(), 2u);
    EXPECT_FALSE(bm.find(2));
}

TEST(BlockManagerHandle, GrowThroughFreedHandleThrows)
{
    kv::BlockManager bm(10, 16);
    auto h = bm.allocate(1, 16);
    ASSERT_TRUE(h);
    bm.release(1);
    EXPECT_THROW(bm.grow(*h, 1, 20), std::logic_error);
    EXPECT_EQ(bm.used_blocks(), 0u);
}

TEST(BlockManagerHandle, GrowThroughHandleReusedByAnotherIdThrows)
{
    kv::BlockManager bm(10, 16);
    auto old = bm.allocate(1, 16);
    ASSERT_TRUE(old);
    bm.release(1);
    auto now = bm.allocate(2, 16);
    ASSERT_TRUE(now);
    ASSERT_EQ(now->slot, old->slot); // the freed slot is reused
    // The slot belongs to request 2 now: growing request 1 through it
    // is an unknown id, exactly as on the by-id path.
    EXPECT_THROW(bm.grow(*old, 1, 20), std::logic_error);
    EXPECT_EQ(bm.tokens_of(2), 16u);
    EXPECT_EQ(bm.used_blocks(), 1u);
}

TEST(BlockManagerHandle, StaleHandleOfHeldIdFallsBackToId)
{
    kv::BlockManager bm(10, 16);
    auto old = bm.allocate(1, 16);
    ASSERT_TRUE(old);
    bm.release(1);
    ASSERT_TRUE(bm.allocate(2, 16)); // takes request 1's old slot
    ASSERT_TRUE(bm.allocate(1, 16)); // request 1 moves to a new slot
    EXPECT_TRUE(bm.grow(*old, 1, 17));
    EXPECT_EQ(bm.tokens_of(1), 17u);
    EXPECT_EQ(bm.tokens_of(2), 16u);
    EXPECT_TRUE(bm.grow(kv::KvHandle{}, 2, 33)); // default handle: by id
    EXPECT_EQ(bm.tokens_of(2), 33u);
}

TEST(BlockManagerHandle, HandlesSurviveReleaseAndReuseOfOtherSlots)
{
    kv::BlockManager bm(100, 16);
    auto h1 = bm.allocate(1, 10);
    auto h2 = bm.allocate(2, 20);
    auto h3 = bm.allocate(3, 30);
    ASSERT_TRUE(h1 && h2 && h3);
    bm.release(2);
    auto h4 = bm.allocate(4, 40);
    ASSERT_TRUE(h4);
    EXPECT_EQ(h4->slot, h2->slot);
    EXPECT_TRUE(bm.grow(*h1, 1, 50));
    EXPECT_TRUE(bm.grow(*h3, 3, 60));
    EXPECT_TRUE(bm.grow(*h4, 4, 70));
    EXPECT_EQ(bm.tokens_of(1), 50u);
    EXPECT_EQ(bm.tokens_of(3), 60u);
    EXPECT_EQ(bm.tokens_of(4), 70u);
    EXPECT_EQ(bm.find(1)->slot, h1->slot);
    EXPECT_EQ(bm.find(3)->slot, h3->slot);
    EXPECT_EQ(bm.total_tokens(), 180u);
    EXPECT_EQ(bm.holders(), (std::vector<kv::ReqId>{1, 3, 4}));
}

/** Property: random alloc/grow/release sequence keeps invariants.
 *  Grows alternate between the allocation's handle and the id. */
TEST(BlockManagerProperty, RandomOpsPreserveInvariants)
{
    windserve::sim::Rng rng(77);
    kv::BlockManager bm(512, 16);
    struct Held {
        std::size_t tokens;
        kv::KvHandle handle;
    };
    std::unordered_map<kv::ReqId, Held> shadow;
    kv::ReqId next_id = 0;

    for (int step = 0; step < 20000; ++step) {
        double op = rng.uniform();
        if (op < 0.4) {
            std::size_t tokens =
                static_cast<std::size_t>(rng.uniform_int(1, 400));
            kv::ReqId id = next_id++;
            if (auto h = bm.allocate(id, tokens))
                shadow[id] = Held{tokens, *h};
        } else if (op < 0.75 && !shadow.empty()) {
            auto it = shadow.begin();
            std::advance(it, rng.uniform_int(
                                 0, static_cast<long>(shadow.size()) - 1));
            std::size_t extra =
                static_cast<std::size_t>(rng.uniform_int(1, 50));
            std::size_t to = it->second.tokens + extra;
            bool ok = rng.uniform() < 0.5
                          ? bm.grow(it->second.handle, it->first, to)
                          : bm.grow(it->first, to);
            if (ok)
                it->second.tokens = to;
        } else if (!shadow.empty()) {
            auto it = shadow.begin();
            std::advance(it, rng.uniform_int(
                                 0, static_cast<long>(shadow.size()) - 1));
            bm.release(it->first);
            shadow.erase(it);
        }

        // Invariants after every step.
        ASSERT_EQ(bm.num_holders(), shadow.size());
        std::size_t blocks = 0, tokens = 0;
        for (const auto &[id, held] : shadow) {
            ASSERT_EQ(bm.tokens_of(id), held.tokens);
            ASSERT_EQ(bm.blocks_of(id), bm.blocks_for(held.tokens));
            ASSERT_EQ(bm.find(id)->slot, held.handle.slot);
            blocks += bm.blocks_for(held.tokens);
            tokens += held.tokens;
        }
        ASSERT_EQ(bm.used_blocks(), blocks);
        ASSERT_EQ(bm.total_tokens(), tokens);
        ASSERT_LE(bm.used_blocks(), bm.total_blocks());
    }
}

/** Property: what was allocated can always be fully released. */
TEST(BlockManagerProperty, FullDrainReturnsToEmpty)
{
    windserve::sim::Rng rng(5);
    kv::BlockManager bm(256, 16);
    std::vector<kv::ReqId> ids;
    for (kv::ReqId id = 0; id < 100; ++id)
        if (bm.allocate(id, static_cast<std::size_t>(
                                rng.uniform_int(1, 128))))
            ids.push_back(id);
    for (auto id : ids)
        bm.release(id);
    EXPECT_EQ(bm.used_blocks(), 0u);
    EXPECT_EQ(bm.total_tokens(), 0u);
    EXPECT_DOUBLE_EQ(bm.occupancy(), 0.0);
}
