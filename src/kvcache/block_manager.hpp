/**
 * @file
 * PagedAttention-style KV block manager (paper §2.1 "Memory Optimization").
 *
 * KV tensors are allocated in fixed-size blocks of tokens as a request's
 * context grows, eliminating the max-context pre-reservation of earlier
 * engines. One BlockManager exists per serving instance (§3.1: "sets up
 * a KV manager in each instance for KV block management").
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/attachments.hpp"

namespace windserve::audit {
class KvLedger;
}

namespace windserve::kvcache {

/** Request identifier (matches workload::RequestId). */
using ReqId = std::uint64_t;

/**
 * Dense slot of one allocation, returned by BlockManager::allocate.
 * It is a hint, not a capability: grow() checks it against the owning
 * id and falls back to the by-id lookup when it is stale (released,
 * or its slot reused by another request). The default handle is never
 * valid.
 */
struct KvHandle {
    std::uint32_t slot = std::numeric_limits<std::uint32_t>::max();
};

/**
 * Tracks block ownership per request. Blocks are fungible (the simulator
 * does not model physical block indices), so the manager maintains counts
 * and invariants rather than page tables.
 *
 * Allocations live in a slab of reusable slots. The hot per-step grow()
 * indexes the slab through a KvHandle; the id -> slot index is touched
 * only by allocate, release and the by-id queries.
 */
class BlockManager
{
  public:
    /**
     * @param total_blocks capacity of the instance in blocks
     * @param block_size   tokens per block (16 in vLLM and here)
     */
    BlockManager(std::size_t total_blocks, std::size_t block_size = 16);

    std::size_t block_size() const { return block_size_; }
    std::size_t total_blocks() const { return total_blocks_; }
    std::size_t used_blocks() const { return used_blocks_; }
    std::size_t free_blocks() const { return total_blocks_ - used_blocks_; }

    /** Blocks needed to hold @p tokens tokens. */
    std::size_t blocks_for(std::size_t tokens) const;

    /** True if @p tokens more tokens could be allocated right now. */
    bool can_allocate(std::size_t tokens) const;

    /**
     * Allocate the KV footprint of a request with @p tokens tokens.
     * @return the allocation's handle, or nullopt (no change) if
     * capacity is insufficient. The request must not already hold an
     * allocation.
     */
    std::optional<KvHandle> allocate(ReqId id, std::size_t tokens);

    /**
     * Grow request @p id 's footprint to @p new_tokens total tokens
     * (new_tokens >= current). @p h locates the allocation in O(1); a
     * stale handle falls back to the by-id lookup, so an unknown id
     * still throws. @return false if a needed new block could not be
     * allocated; the existing allocation is untouched.
     */
    bool grow(KvHandle h, ReqId id, std::size_t new_tokens);

    /** grow() through the by-id lookup. */
    bool grow(ReqId id, std::size_t new_tokens)
    {
        return grow(KvHandle{}, id, new_tokens);
    }

    /** Handle of @p id 's allocation, or nullopt if it holds none. */
    std::optional<KvHandle> find(ReqId id) const;

    /** Release all blocks of a request. No-op for unknown ids. */
    void release(ReqId id);

    /** Tokens currently recorded for a request (0 if none). */
    std::size_t tokens_of(ReqId id) const;

    /** Blocks currently held by a request (0 if none). */
    std::size_t blocks_of(ReqId id) const;

    bool holds(ReqId id) const { return index_.count(id) > 0; }

    /** Number of requests holding blocks. */
    std::size_t num_holders() const { return index_.size(); }

    /** Ids of all holders, sorted (crash cleanup iterates these). */
    std::vector<ReqId> holders() const;

    /** Fraction of capacity in use, in [0,1]. */
    double occupancy() const;

    /** Total tokens stored across all holders. */
    std::size_t total_tokens() const { return total_tokens_; }

    /**
     * Report every allocate/grow/release to @p at.audit under @p owner
     * (the instance name). nullptr (the default) disables auditing.
     * The owner's shadow ledger is resolved here, once. Hooks fire
     * BEFORE the operation applies — and before the manager's own
     * logic_error throws — so the auditor can attach the repro seed to
     * the first inconsistent event.
     */
    void attach(const engine::Attachments &at, const std::string &owner);

  private:
    struct Alloc {
        ReqId id;
        bool live;
        std::size_t tokens;
        std::size_t blocks;
    };

    /** The live allocation of @p id, or nullptr. */
    Alloc *lookup(ReqId id);
    const Alloc *lookup(ReqId id) const
    {
        return const_cast<BlockManager *>(this)->lookup(id);
    }

    std::size_t total_blocks_;
    std::size_t block_size_;
    std::size_t used_blocks_ = 0;
    std::size_t total_tokens_ = 0;
    std::vector<Alloc> slab_;
    std::vector<std::uint32_t> free_slots_;
    std::unordered_map<ReqId, std::uint32_t> index_; ///< id -> slab slot
    audit::SimAuditor *audit_ = nullptr;
    audit::KvLedger *audit_ledger_ = nullptr;
};

} // namespace windserve::kvcache
