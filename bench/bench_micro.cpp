/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths — event
 * queue churn, cancellation, paged block management, cost-model
 * evaluation, exact percentiles, and a full end-to-end serving run per
 * system — plus the tracked events/sec baseline:
 *
 *   bench_micro --json[=PATH] [--iters N]
 *
 * runs the simcore workloads (event chain, cancellation-heavy,
 * mixed-horizon) against both the pooled event core and a reference
 * copy of the pre-pool "seed" queue, and emits BENCH_simcore.json with
 * events/sec, wall-clock, allocs/event and the speedup ratio. The
 * committed BENCH_simcore.json at the repo root is regenerated from the
 * release-bench preset (see README "Tracking event-core performance").
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "windserve/windserve.hpp"

using namespace windserve;

// ---------------------------------------------------------------------
// Reference copy of the seed event queue (pre-EventPool): a binary heap
// of std::function entries with a lazy `cancelled_` bitmap. Kept here
// verbatim so the speedup of the pooled core stays measurable against
// the exact seed semantics in one binary.
// ---------------------------------------------------------------------
namespace seedref {

using SimTime = double;
using EventId = std::uint64_t;

class EventQueue
{
  public:
    EventId push(SimTime when, std::function<void()> fn)
    {
        EventId id = next_id_++;
        cancelled_.push_back(false);
        heap_.push(Entry{when, id, std::move(fn)});
        ++live_;
        return id;
    }

    void cancel(EventId id)
    {
        if (id < cancelled_.size() && !cancelled_[id]) {
            cancelled_[id] = true;
            if (live_ > 0)
                --live_;
        }
    }

    bool empty() const
    {
        skip_dead();
        return heap_.empty();
    }

    SimTime next_time() const
    {
        skip_dead();
        return heap_.top().when;
    }

    SimTime pop_and_run()
    {
        skip_dead();
        Entry e = std::move(const_cast<Entry &>(heap_.top()));
        heap_.pop();
        cancelled_[e.id] = true;
        --live_;
        e.fn();
        return e.when;
    }

  private:
    struct Entry {
        SimTime when;
        EventId id;
        std::function<void()> fn;
    };
    struct Later {
        bool operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.id > b.id;
        }
    };
    void skip_dead() const
    {
        while (!heap_.empty() && cancelled_[heap_.top().id])
            heap_.pop();
    }

    mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    mutable std::vector<bool> cancelled_;
    std::size_t live_ = 0;
    EventId next_id_ = 0;
};

} // namespace seedref

namespace {

/** splitmix64: deterministic timestamp jitter without <random>. */
inline std::uint64_t
mix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Uniform double in [0, 1). */
inline double
unit(std::uint64_t &x)
{
    return static_cast<double>(mix64(x) >> 11) * 0x1.0p-53;
}

/**
 * Self-rescheduling event chain, the pooled core's intended usage: a
 * small trivially-copyable functor that goes straight into the event
 * pool's inline storage — no std::function, no allocation per event.
 */
struct ChainFn {
    sim::Simulator *s;
    long *fired;
    long limit;
    void operator()() const
    {
        if (++*fired < limit)
            s->schedule(0.001, *this);
    }
};

long
run_chain(long events)
{
    sim::Simulator s;
    long fired = 0;
    s.schedule(0.0, ChainFn{&s, &fired, events});
    s.run();
    return fired;
}

long
run_chain_seedref(long events)
{
    seedref::EventQueue q;
    double now = 0.0;
    long fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < events)
            q.push(now + 0.001, chain);
    };
    q.push(0.0, chain);
    while (!q.empty()) {
        now = q.next_time();
        q.pop_and_run();
    }
    return fired;
}

/**
 * Cancellation-heavy churn on one long-lived queue: per round, push a
 * block of timers, eagerly cancel three quarters (the fate of most
 * retry/watchdog timers), drain the survivors. The seed queue's
 * `cancelled_` bitmap grows with every push for the lifetime of the
 * queue and its heap drags the dead entries until they surface.
 * @return total events pushed.
 */
template <class Queue>
long
run_cancel_heavy(Queue &q, long target_pushes)
{
    constexpr int kBlock = 256;
    std::uint64_t x = 12345;
    long pushed = 0;
    double now = 0.0;
    std::vector<decltype(q.push(0.0, [] {}))> handles;
    handles.reserve(kBlock);
    while (pushed < target_pushes) {
        handles.clear();
        for (int i = 0; i < kBlock; ++i)
            handles.push_back(q.push(now + unit(x), [] {}));
        pushed += kBlock;
        for (int i = 0; i < kBlock; ++i) {
            if (i % 4 != 0)
                q.cancel(handles[static_cast<std::size_t>(i)]);
        }
        while (!q.empty())
            now = q.pop_and_run();
    }
    return pushed;
}

/**
 * Mixed-horizon steady state: a deep resident heap (long-horizon
 * timers) with a fast-churning front (short-horizon events) — the
 * shape of a big serving run, where per-token steps race ahead of
 * arrival, repair, and watchdog timers scheduled far out.
 * @return events fired.
 */
template <class Queue>
long
run_mixed_horizon(Queue &q, long events)
{
    constexpr int kResident = 8192;
    static constexpr double kHorizons[] = {1e-4, 1e-3, 1e-2, 1e-1, 1e0,
                                           1e1,  1e2,  1e3};
    std::uint64_t x = 999;
    double now = 0.0;
    for (int i = 0; i < kResident; ++i) {
        double h = kHorizons[mix64(x) % 8];
        q.push(now + h * (1.0 + unit(x)), [] {});
    }
    long fired = 0;
    while (fired < events) {
        now = q.pop_and_run();
        ++fired;
        double h = kHorizons[mix64(x) % 8];
        q.push(now + h * (1.0 + unit(x)), [] {});
    }
    return fired;
}

} // namespace

// ---------------------------------------------------------------------
// google-benchmark registrations
// ---------------------------------------------------------------------

static void
BM_EventQueuePushPop(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        for (int i = 0; i < state.range(0); ++i)
            q.push(static_cast<double>((i * 2654435761u) % 1000), [] {});
        while (!q.empty())
            q.pop_and_run();
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

static void
BM_SimulatorEventChain(benchmark::State &state)
{
    for (auto _ : state) {
        long fired = run_chain(state.range(0));
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEventChain)->Arg(10000);

static void
BM_SeedRefEventChain(benchmark::State &state)
{
    for (auto _ : state) {
        long fired = run_chain_seedref(state.range(0));
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeedRefEventChain)->Arg(10000);

static void
BM_EventQueueCancelHeavy(benchmark::State &state)
{
    sim::EventQueue q; // long-lived across iterations, like a real run
    for (auto _ : state) {
        long pushed = run_cancel_heavy(q, state.range(0));
        benchmark::DoNotOptimize(pushed);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(4096);

static void
BM_SeedRefCancelHeavy(benchmark::State &state)
{
    seedref::EventQueue q;
    for (auto _ : state) {
        long pushed = run_cancel_heavy(q, state.range(0));
        benchmark::DoNotOptimize(pushed);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeedRefCancelHeavy)->Arg(4096);

static void
BM_EventQueueMixedHorizon(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue q;
        long fired = run_mixed_horizon(q, state.range(0));
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueMixedHorizon)->Arg(65536);

static void
BM_BlockManagerChurn(benchmark::State &state)
{
    kvcache::BlockManager bm(1 << 16, 16);
    sim::Rng rng(1);
    std::vector<kvcache::ReqId> live;
    kvcache::ReqId next = 0;
    for (auto _ : state) {
        if (live.size() < 512 && bm.allocate(next, 400)) {
            live.push_back(next++);
        } else if (!live.empty()) {
            std::size_t i = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<long>(live.size()) - 1));
            bm.release(live[i]);
            live[i] = live.back();
            live.pop_back();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockManagerChurn);

static void
BM_CostModelDecode(benchmark::State &state)
{
    model::CostModel cm(model::ModelSpec::opt_13b(),
                        hw::GpuSpec::a800_80g(), {2, 1});
    double acc = 0, l = 1000;
    for (auto _ : state) {
        acc += cm.decode_time(16.0, l);
        l += 1.0;
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_CostModelDecode);

static void
BM_ProfilerFit(benchmark::State &state)
{
    std::vector<double> x, y;
    sim::Rng rng(3);
    for (int i = 1; i <= 512; ++i) {
        x.push_back(8.0 * i);
        y.push_back(2e-4 * 8.0 * i + 1e-8 * 64.0 * i * i + 0.006);
    }
    for (auto _ : state) {
        auto fit = core::fit_quadratic(x, y);
        benchmark::DoNotOptimize(fit);
    }
}
BENCHMARK(BM_ProfilerFit);

static void
BM_PercentileExact(benchmark::State &state)
{
    sim::Rng rng(4);
    for (auto _ : state) {
        state.PauseTiming();
        sim::Sample s;
        for (int i = 0; i < state.range(0); ++i)
            s.add(rng.uniform());
        state.ResumeTiming();
        benchmark::DoNotOptimize(s.p99());
    }
}
BENCHMARK(BM_PercentileExact)->Arg(10000);

static void
BM_EndToEnd(benchmark::State &state)
{
    auto kind = static_cast<harness::SystemKind>(state.range(0));
    for (auto _ : state) {
        harness::ExperimentConfig ec;
        ec.system = kind;
        ec.per_gpu_rate = 4.0;
        ec.num_requests = 500;
        auto r = harness::run_experiment(ec);
        benchmark::DoNotOptimize(r.metrics.slo_attainment);
    }
    state.SetLabel(harness::to_string(kind));
    state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_EndToEnd)
    ->Arg(static_cast<int>(harness::SystemKind::WindServe))
    ->Arg(static_cast<int>(harness::SystemKind::DistServe))
    ->Arg(static_cast<int>(harness::SystemKind::Vllm))
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// --json mode: the tracked BENCH_simcore.json baseline
// ---------------------------------------------------------------------
namespace {

struct WorkloadResult {
    std::string name;
    long events = 0;
    double wall_s = 0.0;
    double events_per_sec = 0.0;
    double allocs_per_event = 0.0;
    double seedref_events_per_sec = 0.0;
    double speedup_vs_seed = 0.0;
};

double
wall_seconds(const std::function<void()> &fn)
{
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Best-of-3 wall time: rejects one-off scheduling hiccups without
 *  needing long runs (the JSON mode also backs the perf-smoke test). */
double
best_wall(const std::function<void()> &fn)
{
    double best = wall_seconds(fn);
    for (int i = 0; i < 2; ++i)
        best = std::min(best, wall_seconds(fn));
    return best;
}

WorkloadResult
measure_chain(long events)
{
    WorkloadResult r;
    r.name = "event_chain";
    r.events = events;
    sim::EventPool::Stats before{}, after{};
    r.wall_s = best_wall([&] {
        sim::Simulator s;
        long fired = 0;
        s.schedule(0.0, ChainFn{&s, &fired, events});
        before = s.alloc_stats();
        s.run();
        after = s.alloc_stats();
        benchmark::DoNotOptimize(fired);
    });
    r.events_per_sec = static_cast<double>(events) / r.wall_s;
    r.allocs_per_event =
        static_cast<double>(after.heap_fallbacks - before.heap_fallbacks +
                            after.chunk_allocs - before.chunk_allocs) /
        static_cast<double>(events);
    double seed_wall =
        best_wall([&] { benchmark::DoNotOptimize(run_chain_seedref(events)); });
    r.seedref_events_per_sec = static_cast<double>(events) / seed_wall;
    r.speedup_vs_seed = r.events_per_sec / r.seedref_events_per_sec;
    return r;
}

WorkloadResult
measure_cancel_heavy(long events)
{
    WorkloadResult r;
    r.name = "cancel_heavy";
    r.events = events;
    sim::EventQueue q;
    r.wall_s = best_wall(
        [&] { benchmark::DoNotOptimize(run_cancel_heavy(q, events)); });
    r.events_per_sec = static_cast<double>(events) / r.wall_s;
    r.allocs_per_event =
        static_cast<double>(q.alloc_stats().heap_fallbacks +
                            q.alloc_stats().chunk_allocs) /
        static_cast<double>(q.alloc_stats().acquired);
    double seed_wall = best_wall([&] {
        seedref::EventQueue sq;
        benchmark::DoNotOptimize(run_cancel_heavy(sq, events));
    });
    r.seedref_events_per_sec = static_cast<double>(events) / seed_wall;
    r.speedup_vs_seed = r.events_per_sec / r.seedref_events_per_sec;
    return r;
}

WorkloadResult
measure_mixed_horizon(long events)
{
    WorkloadResult r;
    r.name = "mixed_horizon";
    r.events = events;
    double wall = 0.0;
    double allocs = 0.0;
    wall = best_wall([&] {
        sim::EventQueue q;
        benchmark::DoNotOptimize(run_mixed_horizon(q, events));
        allocs = static_cast<double>(q.alloc_stats().heap_fallbacks +
                                     q.alloc_stats().chunk_allocs) /
                 static_cast<double>(q.alloc_stats().acquired);
    });
    r.wall_s = wall;
    r.events_per_sec = static_cast<double>(events) / wall;
    r.allocs_per_event = allocs;
    double seed_wall = best_wall([&] {
        seedref::EventQueue sq;
        benchmark::DoNotOptimize(run_mixed_horizon(sq, events));
    });
    r.seedref_events_per_sec = static_cast<double>(events) / seed_wall;
    r.speedup_vs_seed = r.events_per_sec / r.seedref_events_per_sec;
    return r;
}

int
emit_simcore_json(const std::string &path, long iters)
{
    const long chain_events = iters > 0 ? iters : 2'000'000;
    const long cancel_events = iters > 0 ? iters : 2'000'000;
    const long mixed_events = iters > 0 ? iters : 1'000'000;

    std::vector<WorkloadResult> results;
    results.push_back(measure_chain(chain_events));
    results.push_back(measure_cancel_heavy(cancel_events));
    results.push_back(measure_mixed_horizon(mixed_events));

    std::ofstream out(path);
    if (!out) {
        std::cerr << "bench_micro: cannot write " << path << "\n";
        return 1;
    }
    out << "{\n";
    out << "  \"bench\": \"simcore\",\n";
    out << "  \"schema_version\": 1,\n";
    out << "  \"build\": \""
#ifdef NDEBUG
        << "optimized"
#else
        << "debug"
#endif
        << "\",\n";
    out << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const WorkloadResult &r = results[i];
        out << "    {\n";
        out << "      \"name\": \"" << r.name << "\",\n";
        out << "      \"events\": " << r.events << ",\n";
        out << "      \"wall_s\": " << r.wall_s << ",\n";
        out << "      \"events_per_sec\": " << r.events_per_sec << ",\n";
        out << "      \"allocs_per_event\": " << r.allocs_per_event << ",\n";
        out << "      \"seedref_events_per_sec\": "
            << r.seedref_events_per_sec << ",\n";
        out << "      \"speedup_vs_seed\": " << r.speedup_vs_seed << "\n";
        out << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";

    for (const WorkloadResult &r : results) {
        std::cout << r.name << ": " << r.events_per_sec / 1e6
                  << " M events/s (" << r.allocs_per_event
                  << " allocs/event, " << r.speedup_vs_seed
                  << "x vs seed queue)\n";
    }
    std::cout << "wrote " << path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    bool json = false;
    long iters = 0;
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json = true;
            json_path = arg.substr(7);
        } else if (arg == "--iters" || arg.rfind("--iters=", 0) == 0) {
            std::string v;
            if (arg != "--iters")
                v = arg.substr(8);
            else if (i + 1 < argc)
                v = argv[++i];
            try {
                std::uint64_t n = harness::parse_count("--iters", v);
                if (n > static_cast<std::uint64_t>(
                            std::numeric_limits<long>::max()))
                    throw std::invalid_argument(
                        "--iters: value out of range: " + v);
                iters = static_cast<long>(n);
            } catch (const std::invalid_argument &e) {
                std::cerr << e.what() << "\n";
                return 2;
            }
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    if (json) {
        if (json_path.empty())
            json_path = "BENCH_simcore.json";
        return emit_simcore_json(json_path, iters);
    }
    int pass_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&pass_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
