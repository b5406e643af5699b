#include "engine/batch.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

namespace windserve::engine {

namespace {

/** Next DecodeGroup id; shared by every thread, never 0. */
std::uint32_t
next_group_id()
{
    static std::atomic<std::uint32_t> next{1};
    std::uint32_t id;
    do {
        id = next.fetch_add(1, std::memory_order_relaxed);
    } while (id == 0);
    return id;
}

} // namespace

DecodeGroup::DecodeGroup() : id_(next_group_id()) {}

std::size_t
DecodeGroup::sum_context() const
{
    std::size_t sum = 0;
    for (const Request *r : members)
        sum += r->context_length();
    return sum;
}

void
DecodeGroup::add(Request *r, kvcache::KvHandle h)
{
    if (r->decode_group != 0)
        throw std::logic_error("DecodeGroup::add: request " +
                               std::to_string(r->id) +
                               " already belongs to a group");
    members.push_back(r);
    handles.push_back(h);
    r->decode_group = id_;
}

bool
DecodeGroup::remove(Request *r)
{
    if (!contains(r))
        return false;
    auto it = std::find(members.begin(), members.end(), r);
    if (it == members.end())
        throw std::logic_error("DecodeGroup::remove: request " +
                               std::to_string(r->id) +
                               " is stamped with this group but absent");
    handles.erase(handles.begin() + (it - members.begin()));
    members.erase(it);
    r->decode_group = 0;
    return true;
}

void
DecodeGroup::clear()
{
    for (Request *r : members)
        r->decode_group = 0;
    members.clear();
    handles.clear();
    iteration_members.clear();
    iteration_handles.clear();
    busy = false;
}

std::size_t
total_prompt_tokens(const std::vector<Request *> &requests)
{
    std::size_t sum = 0;
    for (const Request *r : requests)
        sum += r->prompt_tokens;
    return sum;
}

} // namespace windserve::engine
