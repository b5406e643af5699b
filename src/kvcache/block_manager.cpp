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

BlockManager::Alloc *
BlockManager::lookup(ReqId id)
{
    auto it = index_.find(id);
    return it == index_.end() ? nullptr : &slab_[it->second];
}

std::optional<KvHandle>
BlockManager::allocate(ReqId id, std::size_t tokens)
{
    std::size_t need = blocks_for(tokens);
    bool fresh = index_.count(id) == 0;
    bool fits = need <= free_blocks();
    if (audit_) {
        audit_->on_kv_alloc(*audit_ledger_, id, tokens, need, fresh && fits,
                            used_blocks_, total_blocks_);
    }
    if (!fresh)
        throw std::logic_error("BlockManager::allocate: id already held");
    if (!fits)
        return std::nullopt;
    used_blocks_ += need;
    total_tokens_ += tokens;
    KvHandle h;
    if (free_slots_.empty()) {
        h.slot = static_cast<std::uint32_t>(slab_.size());
        slab_.push_back(Alloc{id, true, tokens, need});
    } else {
        h.slot = free_slots_.back();
        free_slots_.pop_back();
        slab_[h.slot] = Alloc{id, true, tokens, need};
    }
    index_.emplace(id, h.slot);
    return h;
}

bool
BlockManager::grow(KvHandle h, ReqId id, std::size_t new_tokens)
{
    Alloc *a = h.slot < slab_.size() && slab_[h.slot].live &&
                       slab_[h.slot].id == id
                   ? &slab_[h.slot]
                   : lookup(id);
    bool known = a != nullptr;
    bool growing = known && new_tokens >= a->tokens;
    std::size_t need = blocks_for(new_tokens);
    std::size_t extra = known && need > a->blocks ? need - a->blocks : 0;
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
    total_tokens_ += new_tokens - a->tokens;
    a->tokens = new_tokens;
    a->blocks = need;
    return true;
}

std::optional<KvHandle>
BlockManager::find(ReqId id) const
{
    auto it = index_.find(id);
    if (it == index_.end())
        return std::nullopt;
    return KvHandle{it->second};
}

void
BlockManager::release(ReqId id)
{
    auto it = index_.find(id);
    bool known = it != index_.end();
    if (audit_) {
        audit_->on_kv_release(*audit_ledger_, id,
                              known ? slab_[it->second].blocks : 0, known,
                              used_blocks_);
    }
    if (!known)
        return;
    Alloc &a = slab_[it->second];
    used_blocks_ -= a.blocks;
    total_tokens_ -= a.tokens;
    a.live = false;
    free_slots_.push_back(it->second);
    index_.erase(it);
}

std::size_t
BlockManager::tokens_of(ReqId id) const
{
    const Alloc *a = lookup(id);
    return a ? a->tokens : 0;
}

std::size_t
BlockManager::blocks_of(ReqId id) const
{
    const Alloc *a = lookup(id);
    return a ? a->blocks : 0;
}

std::vector<ReqId>
BlockManager::holders() const
{
    std::vector<ReqId> out;
    out.reserve(index_.size());
    for (const auto &[id, slot] : index_)
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
