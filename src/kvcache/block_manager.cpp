#include "kvcache/block_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "audit/sim_auditor.hpp"

namespace windserve::kvcache {

BlockManager::BlockManager(std::size_t total_blocks, std::size_t block_size)
    : total_blocks_(total_blocks), block_size_(block_size)
{
    if (block_size_ == 0)
        throw std::invalid_argument("BlockManager: block_size must be > 0");
}

std::size_t
BlockManager::blocks_for(std::size_t tokens) const
{
    return (tokens + block_size_ - 1) / block_size_;
}

bool
BlockManager::can_allocate(std::size_t tokens) const
{
    return blocks_for(tokens) <= free_blocks();
}

bool
BlockManager::allocate(ReqId id, std::size_t tokens)
{
    std::size_t need = blocks_for(tokens);
    bool fresh = per_req_.count(id) == 0;
    bool fits = need <= free_blocks();
    if (audit_) {
        audit_->on_kv_alloc(*audit_ledger_, id, tokens, need, fresh && fits,
                            used_blocks_, total_blocks_);
    }
    if (!fresh)
        throw std::logic_error("BlockManager::allocate: id already held");
    if (!fits)
        return false;
    used_blocks_ += need;
    total_tokens_ += tokens;
    per_req_[id] = Alloc{tokens, need};
    return true;
}

bool
BlockManager::grow(ReqId id, std::size_t new_tokens)
{
    auto it = per_req_.find(id);
    bool known = it != per_req_.end();
    bool growing = known && new_tokens >= it->second.tokens;
    std::size_t need = blocks_for(new_tokens);
    std::size_t extra =
        known && need > it->second.blocks ? need - it->second.blocks : 0;
    bool fits = extra <= free_blocks();
    if (audit_) {
        audit_->on_kv_grow(*audit_ledger_, id, new_tokens, need,
                           known && growing && fits, used_blocks_,
                           total_blocks_);
    }
    if (!known)
        throw std::logic_error("BlockManager::grow: unknown id");
    if (!growing)
        throw std::logic_error("BlockManager::grow: shrinking not allowed");
    if (!fits)
        return false;
    used_blocks_ += extra;
    total_tokens_ += new_tokens - it->second.tokens;
    it->second.tokens = new_tokens;
    it->second.blocks = need;
    return true;
}

void
BlockManager::release(ReqId id)
{
    auto it = per_req_.find(id);
    bool known = it != per_req_.end();
    if (audit_) {
        audit_->on_kv_release(*audit_ledger_, id,
                              known ? it->second.blocks : 0, known,
                              used_blocks_);
    }
    if (!known)
        return;
    used_blocks_ -= it->second.blocks;
    total_tokens_ -= it->second.tokens;
    per_req_.erase(it);
}

std::size_t
BlockManager::tokens_of(ReqId id) const
{
    auto it = per_req_.find(id);
    return it == per_req_.end() ? 0 : it->second.tokens;
}

std::size_t
BlockManager::blocks_of(ReqId id) const
{
    auto it = per_req_.find(id);
    return it == per_req_.end() ? 0 : it->second.blocks;
}

std::vector<ReqId>
BlockManager::holders() const
{
    std::vector<ReqId> out;
    out.reserve(per_req_.size());
    for (const auto &[id, alloc] : per_req_)
        out.push_back(id);
    std::sort(out.begin(), out.end());
    return out;
}

double
BlockManager::occupancy() const
{
    return total_blocks_ ? static_cast<double>(used_blocks_) /
                               static_cast<double>(total_blocks_)
                         : 1.0;
}

void
BlockManager::attach(const engine::Attachments &at, const std::string &owner)
{
    audit_ = at.audit;
    audit_ledger_ = audit_ ? &audit_->kv_ledger(owner) : nullptr;
}

} // namespace windserve::kvcache
