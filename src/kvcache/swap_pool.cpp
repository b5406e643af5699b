#include "kvcache/swap_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "audit/sim_auditor.hpp"

namespace windserve::kvcache {

SwapPool::SwapPool(double capacity_bytes, double bytes_per_token)
    : capacity_bytes_(capacity_bytes), bytes_per_token_(bytes_per_token)
{
    if (bytes_per_token_ <= 0.0)
        throw std::invalid_argument("SwapPool: bytes_per_token must be > 0");
}

bool
SwapPool::swap_out(ReqId id, std::size_t tokens)
{
    bool held = tokens_.count(id) > 0;
    double bytes = bytes_for(tokens);
    bool fits = used_bytes_ + bytes <= capacity_bytes_;
    if (audit_) {
        audit_->on_swap_out(owner_, id, tokens, bytes, !held && fits,
                            held, used_bytes_, capacity_bytes_);
    }
    if (held)
        throw std::logic_error("SwapPool::swap_out: id already swapped");
    if (!fits)
        return false;
    tokens_[id] = tokens;
    used_bytes_ += bytes;
    ++swap_out_events_;
    swapped_bytes_total_ += bytes;
    return true;
}

void
SwapPool::swap_in(ReqId id)
{
    auto it = tokens_.find(id);
    if (audit_)
        audit_->on_swap_in(owner_, id, it != tokens_.end(),
                           used_bytes_);
    if (it == tokens_.end())
        throw std::logic_error("SwapPool::swap_in: id not swapped");
    double bytes = bytes_for(it->second);
    used_bytes_ -= bytes;
    swapped_bytes_total_ += bytes;
    ++swap_in_events_;
    tokens_.erase(it);
}

void
SwapPool::drop(ReqId id)
{
    auto it = tokens_.find(id);
    if (it == tokens_.end())
        return; // nothing to discard
    // Ledger-wise a drop is a swap-in that skips the DMA: the auditor
    // credits the bytes back against this id.
    if (audit_)
        audit_->on_swap_in(owner_, id, true, used_bytes_);
    used_bytes_ -= bytes_for(it->second);
    ++drops_;
    tokens_.erase(it);
}

std::vector<ReqId>
SwapPool::holders() const
{
    std::vector<ReqId> out;
    out.reserve(tokens_.size());
    for (const auto &[id, t] : tokens_)
        out.push_back(id);
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t
SwapPool::tokens_of(ReqId id) const
{
    auto it = tokens_.find(id);
    return it == tokens_.end() ? 0 : it->second;
}

double
SwapPool::bytes_for(std::size_t tokens) const
{
    return static_cast<double>(tokens) * bytes_per_token_;
}

void
SwapPool::attach(const engine::Attachments &at, const std::string &owner)
{
    audit_ = at.audit;
    owner_ = owner;
}

} // namespace windserve::kvcache
