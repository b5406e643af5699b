/**
 * @file
 * Batch containers used by the per-instance execution engine.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kvcache/block_manager.hpp"
#include "workload/request.hpp"

namespace windserve::engine {

using workload::Request;

/** A set of requests prefilled together in one forward pass. */
struct PrefillBatch {
    std::vector<Request *> requests;
    /** Sum of prompt tokens still to process across the batch. */
    std::size_t total_tokens = 0;
    /** Simulated completion time, once scheduled. */
    double expected_end = 0.0;
    /** Time the batch started executing. */
    double started = 0.0;

    bool empty() const { return requests.empty(); }
    std::size_t size() const { return requests.size(); }
};

/**
 * One pipeline-parallel micro-batch group of decoding requests.
 *
 * With PP-k an instance runs k groups concurrently: each group's pass
 * traverses all pipeline stages, so per-iteration latency matches the
 * full model while aggregate decode throughput scales with k.
 *
 * Membership changes only through add(), remove() and clear(). Each
 * group carries a process-unique id that add() stamps on
 * Request::decode_group, so contains() is one compare and a request
 * can never sit in two groups (of this instance or any other).
 */
struct DecodeGroup {
    DecodeGroup();

    /** Members in admission order (read-only outside add/remove/clear). */
    std::vector<Request *> members;
    /** KV handle of each member, index-aligned with `members`. */
    std::vector<kvcache::KvHandle> handles;
    bool busy = false;
    /** Completion time of the in-flight iteration (valid while busy). */
    double iteration_end = 0.0;
    /**
     * Members participating in the in-flight iteration, snapshotted at
     * pass start together with their handles. Continuous batching
     * admits waiting requests into `members` at any time — including
     * mid-pass — but only the snapshot earns the pass's token: a
     * mid-pass joiner decodes nothing until the next iteration starts.
     */
    std::vector<Request *> iteration_members;
    std::vector<kvcache::KvHandle> iteration_handles;

    /** Sum of current context lengths (the Eq. 2 sumL). */
    std::size_t sum_context() const;
    std::size_t size() const { return members.size(); }
    std::uint32_t id() const { return id_; }
    bool contains(const Request *r) const { return r->decode_group == id_; }
    /** Append @p r with its KV handle @p h.
     *  @throws std::logic_error if @p r already belongs to a group. */
    void add(Request *r, kvcache::KvHandle h);
    /** Remove a request; @return true if it was present. */
    bool remove(Request *r);
    /** Drop every member and the pass snapshot; the group goes idle. */
    void clear();

  private:
    std::uint32_t id_;
};

/** Sum of prompt tokens over a span of requests. */
std::size_t total_prompt_tokens(const std::vector<Request *> &requests);

} // namespace windserve::engine
