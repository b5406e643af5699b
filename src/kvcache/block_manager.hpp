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
 * Tracks block ownership per request. Blocks are fungible (the simulator
 * does not model physical block indices), so the manager maintains counts
 * and invariants rather than page tables.
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
     * @return false (no change) if capacity is insufficient.
     * The request must not already hold an allocation.
     */
    bool allocate(ReqId id, std::size_t tokens);

    /**
     * Grow a request's footprint to @p new_tokens total tokens
     * (new_tokens >= current). @return false if a needed new block could
     * not be allocated; the existing allocation is untouched.
     */
    bool grow(ReqId id, std::size_t new_tokens);

    /** Release all blocks of a request. No-op for unknown ids. */
    void release(ReqId id);

    /** Tokens currently recorded for a request (0 if none). */
    std::size_t tokens_of(ReqId id) const;

    /** Blocks currently held by a request (0 if none). */
    std::size_t blocks_of(ReqId id) const;

    bool holds(ReqId id) const { return per_req_.count(id) > 0; }

    /** Number of requests holding blocks. */
    std::size_t num_holders() const { return per_req_.size(); }

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
        std::size_t tokens;
        std::size_t blocks;
    };

    std::size_t total_blocks_;
    std::size_t block_size_;
    std::size_t used_blocks_ = 0;
    std::size_t total_tokens_ = 0;
    std::unordered_map<ReqId, Alloc> per_req_;
    audit::SimAuditor *audit_ = nullptr;
    audit::KvLedger *audit_ledger_ = nullptr;
};

} // namespace windserve::kvcache
