/**
 * @file
 * Host-side self-profiling of the event pump.
 *
 * The pooled event core (DESIGN.md §10) reports one global events/sec
 * number; tuning the hot loop at cluster scale needs to know WHICH
 * subsystem's events dominate. A PumpProfiler attributes every fired
 * event to a named source: components open a sim::SourceScope around
 * their schedule() calls, the Simulator captures the active source tag
 * into each scheduled closure, and the firing wrapper charges the
 * event's wall-clock time and count to that tag. Events scheduled from
 * inside a firing event inherit the firing event's tag unless a scope
 * overrides it, so attribution is transitive and (event counts) fully
 * deterministic.
 *
 * Wall-clock nanoseconds are measured with std::chrono::steady_clock
 * and are inherently non-deterministic; event counts and shares are a
 * pure function of the simulation. Exporters that need byte-identical
 * output across runs must use the count columns only, keyed by source
 * NAME (see obs::Telemetry::profile_table). One profiler is shared by
 * the hub and every LP simulator of a multi-pod run (lp.hpp).
 *
 * Ids are capped at kMaxSources; interning past the cap falls back to
 * the untagged bucket (id 0).
 */
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace windserve::sim {

/** See file comment. */
class PumpProfiler
{
  public:
    /** Snapshot of one source's accumulators. */
    struct Bucket {
        std::uint64_t fired = 0;   ///< events charged to this source
        std::uint64_t wall_ns = 0; ///< host wall-clock spent in them
    };

    /** Source cap (ids 0..kMaxSources-1); real runs use a few dozen
     *  sources, the headroom is for pod-suffixed tags. */
    static constexpr std::size_t kMaxSources = 1024;

    PumpProfiler() : names_{"(untagged)"}, buckets_(1)
    {
        by_name_.emplace(names_[0], 0);
    }
    PumpProfiler(const PumpProfiler &) = delete;
    PumpProfiler &operator=(const PumpProfiler &) = delete;

    /**
     * Source id for @p name, minting one on first use. Id 0 is reserved
     * for "(untagged)" — events fired with no scope and no inherited
     * tag. Ids are dense in first-intern order; consumers key rows by
     * name, never by id.
     */
    std::uint16_t intern(const std::string &name)
    {
        auto it = by_name_.find(name);
        if (it != by_name_.end())
            return it->second;
        if (names_.size() >= kMaxSources)
            return 0; // capacity exhausted: charge to (untagged)
        auto id = static_cast<std::uint16_t>(names_.size());
        names_.push_back(name);
        buckets_.emplace_back();
        by_name_.emplace(name, id);
        return id;
    }

    /** Charge one fired event of @p ns wall-clock to source @p src. */
    void account(std::uint16_t src, std::uint64_t ns)
    {
        Bucket &b = buckets_[src];
        ++b.fired;
        b.wall_ns += ns;
    }

    std::size_t num_sources() const { return names_.size(); }
    std::string name(std::uint16_t src) const { return names_[src]; }
    Bucket bucket(std::uint16_t src) const { return buckets_[src]; }

    /** Total events charged (all sources, untagged included). */
    std::uint64_t total_fired() const
    {
        std::uint64_t n = 0;
        for (const Bucket &b : buckets_)
            n += b.fired;
        return n;
    }

    /** Events charged to a named (non-untagged) source. */
    std::uint64_t named_fired() const
    {
        return total_fired() - buckets_[0].fired;
    }

    /** Fraction of charged events with a named source (1.0 when no
     *  events have been charged yet). */
    double attributed_fraction() const
    {
        std::uint64_t total = total_fired();
        if (total == 0)
            return 1.0;
        return static_cast<double>(named_fired()) /
               static_cast<double>(total);
    }

  private:
    std::vector<std::string> names_; ///< id -> name; [0] = "(untagged)"
    std::vector<Bucket> buckets_;    ///< id -> accumulators
    std::unordered_map<std::string, std::uint16_t> by_name_;
};

} // namespace windserve::sim
