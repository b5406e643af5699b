#include "obs/telemetry.hpp"

#include <algorithm>
#include <cstdio>

#include "simcore/simulator.hpp"

namespace windserve::obs {

Telemetry::Telemetry(TelemetryConfig cfg) : cfg_(cfg) {}

Telemetry::~Telemetry()
{
    // A run that throws mid-replay never reaches finish(); leave the
    // simulator without dangling hooks into this dying object.
    if (sim_ != nullptr) {
        sim_->set_batch_hook(nullptr);
        if (sim_->profiler() == &profiler_)
            sim_->set_profiler(nullptr);
        sim_ = nullptr;
    }
}

void
Telemetry::arm(sim::Simulator &sim)
{
    sim_ = &sim;
    if (cfg_.self_profile)
        sim.set_profiler(&profiler_);
    if (cfg_.sample_every > 0.0) {
        sim.set_batch_hook([this](double t) { on_batch(t); });
    }
}

void
Telemetry::on_batch(double t)
{
    // Emit every tick strictly before the upcoming batch: at tick
    // τ = k * sample_every, all events with time <= τ have fired and
    // none with time > τ have, so pulls read exact piecewise-constant
    // state. (The τ == t tick is deferred until the t-batch completes.)
    const double dt = cfg_.sample_every;
    for (double tau = static_cast<double>(next_tick_) * dt; tau < t;
         tau = static_cast<double>(++next_tick_) * dt)
        registry_.sample(tau);
}

void
Telemetry::finish(double final_time)
{
    if (finished_)
        return;
    finished_ = true;
    if (cfg_.sample_every > 0.0) {
        // Trailing grid ticks the pump never got past, inclusive of a
        // tick landing exactly on the end of the run.
        const double dt = cfg_.sample_every;
        double tau = static_cast<double>(next_tick_) * dt;
        for (; tau <= final_time;
             tau = static_cast<double>(++next_tick_) * dt)
            registry_.sample(tau);
        // Closing off-grid sample so the series always ends at the
        // final simulated state.
        const bool on_grid =
            next_tick_ > 0 &&
            static_cast<double>(next_tick_ - 1) * dt == final_time;
        if (!on_grid)
            registry_.sample(final_time);
    } else {
        registry_.sample(final_time);
    }
    if (sim_ != nullptr) {
        sim_->set_batch_hook(nullptr);
        if (sim_->profiler() == &profiler_)
            sim_->set_profiler(nullptr);
        sim_ = nullptr;
    }
}

std::string
Telemetry::profile_table(bool include_wall) const
{
    struct Row {
        std::string name;
        std::uint64_t fired;
        std::uint64_t wall_ns;
    };
    std::vector<Row> rows;
    for (std::size_t i = 0; i < profiler_.num_sources(); ++i) {
        const auto id = static_cast<std::uint16_t>(i);
        const sim::PumpProfiler::Bucket b = profiler_.bucket(id);
        if (b.fired == 0)
            continue;
        rows.push_back(Row{profiler_.name(id), b.fired, b.wall_ns});
    }
    // Tie-break by NAME, not id: ids follow first-intern order, which
    // is an accident of which component scheduled first.
    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        if (a.fired != b.fired)
            return a.fired > b.fired;
        return a.name < b.name;
    });

    const std::uint64_t total = profiler_.total_fired();
    std::string out = include_wall
        ? "source                        fired   share    wall_ms  ns/event\n"
        : "source                        fired   share\n";
    char line[160];
    for (const Row &r : rows) {
        const double share =
            total > 0 ? 100.0 * static_cast<double>(r.fired) /
                            static_cast<double>(total)
                      : 0.0;
        if (include_wall) {
            const double wall_ms =
                static_cast<double>(r.wall_ns) / 1.0e6;
            const double ns_per =
                static_cast<double>(r.wall_ns) /
                static_cast<double>(r.fired);
            std::snprintf(line, sizeof line,
                          "%-26s %8llu  %5.1f%%  %9.3f  %8.1f\n",
                          r.name.c_str(),
                          static_cast<unsigned long long>(r.fired),
                          share, wall_ms, ns_per);
        } else {
            std::snprintf(line, sizeof line, "%-26s %8llu  %5.1f%%\n",
                          r.name.c_str(),
                          static_cast<unsigned long long>(r.fired),
                          share);
        }
        out += line;
    }
    std::snprintf(line, sizeof line,
                  "total                      %8llu  attributed %.1f%%\n",
                  static_cast<unsigned long long>(total),
                  100.0 * profiler_.attributed_fraction());
    out += line;
    return out;
}

} // namespace windserve::obs
