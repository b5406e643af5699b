#include "engine/local_scheduler.hpp"

#include <algorithm>
#include <optional>

namespace windserve::engine {

PrefillBatch
form_prefill_batch(std::deque<Request *> &queue,
                   const PrefillBatchLimits &limits,
                   kvcache::BlockManager &blocks)
{
    PrefillBatch batch;
    while (!queue.empty() && batch.size() < limits.max_requests) {
        Request *r = queue.front();
        std::size_t tokens = r->prompt_tokens;
        bool head = batch.empty();
        // The head request may exceed the token budget by itself (it must
        // run eventually); later requests must fit within the budget.
        if (!head && batch.total_tokens + tokens > limits.max_tokens)
            break;
        if (!blocks.can_allocate(tokens))
            break;
        blocks.allocate(r->id, tokens);
        queue.pop_front();
        batch.requests.push_back(r);
        batch.total_tokens += tokens;
        if (batch.total_tokens >= limits.max_tokens)
            break;
    }
    return batch;
}

std::vector<Request *>
admit_decodes(std::deque<Request *> &queue, std::vector<DecodeGroup> &groups,
              std::size_t max_per_group, kvcache::BlockManager &blocks)
{
    std::vector<Request *> admitted;
    // FCFS applies to *allocations*: once an earlier request is waiting
    // on blocks (or on a swap-in), later requests may not allocate past
    // it. Requests that already hold their KV (assist prefill, finished
    // swap-in) are admitted regardless of position — holding them back
    // behind a blocked head can deadlock the instance: the head waits
    // for the holders' blocks while the holders wait for the head.
    bool alloc_blocked = false;
    for (auto it = queue.begin(); it != queue.end();) {
        Request *r = *it;
        if (r->state == workload::RequestState::SwappedOut) {
            // Swap-in (not admission) brings it back; its pending
            // block claim blocks later allocations.
            alloc_blocked = true;
            ++it;
            continue;
        }
        auto smallest = std::min_element(
            groups.begin(), groups.end(),
            [](const DecodeGroup &a, const DecodeGroup &b) {
                return a.size() < b.size();
            });
        if (smallest == groups.end() || smallest->size() >= max_per_group)
            break;
        std::size_t tokens = r->context_length();
        std::optional<kvcache::KvHandle> kv = blocks.find(r->id);
        if (!kv) {
            if (alloc_blocked || !blocks.can_allocate(tokens)) {
                alloc_blocked = true;
                ++it;
                continue;
            }
            kv = blocks.allocate(r->id, tokens);
        }
        it = queue.erase(it);
        smallest->add(r, *kv);
        admitted.push_back(r);
    }
    return admitted;
}

Request *
select_swap_victim(const std::vector<DecodeGroup> &groups,
                   const Request *protect)
{
    Request *victim = nullptr;
    for (const auto &g : groups) {
        for (Request *r : g.members) {
            if (r == protect)
                continue;
            if (r->state == workload::RequestState::Migrating)
                continue;
            if (!victim || r->arrival_time > victim->arrival_time)
                victim = r;
        }
    }
    return victim;
}

Request *
select_migration_victim(const std::vector<DecodeGroup> &groups)
{
    Request *victim = nullptr;
    for (const auto &g : groups) {
        for (Request *r : g.members) {
            if (r->state == workload::RequestState::Migrating)
                continue;
            if (!victim || r->context_length() > victim->context_length())
                victim = r;
        }
    }
    return victim;
}

} // namespace windserve::engine
