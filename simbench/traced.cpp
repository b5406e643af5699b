#include "traced.hpp"

#include <algorithm>
#include <thread>

#include "core/cluster_system.hpp"
#include "core/windserve_system.hpp"
#include "ctrl/control_plane.hpp"
#include "metrics/collector.hpp"
#include "obs/telemetry.hpp"
#include "replays.hpp"

namespace simbench {

using windserve::engine::RunOptions;
using windserve::harness::ExperimentConfig;
using windserve::workload::Request;

namespace {

/** Every layer a profiler source can fold into, in report order. */
const std::vector<std::string> kLayers{
    "core.arrival",   "ctrl",          "engine.prefill",
    "engine.sbd",     "engine.decode", "engine.pump",
    "hw.link",        "transfer.watchdog", "fault",
    "untagged"};

/** Deterministic counters of one run, summed over a workload's systems. */
using Counts = std::map<std::string, std::uint64_t>;

/** Events and self time per layer from one or more profilers. */
struct LayerTimes {
    std::map<std::string, std::uint64_t> events;
    std::map<std::string, double> self_s;
    double total_self_s = 0.0;
};

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    std::size_t n = xs.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
add_counts(Counts &into, const Replay &r)
{
    const auto &m = r.result.metrics;
    into["events"] += r.record.events;
    into["finished"] += r.record.finished;
    into["kvcache.swap_outs"] += m.swap_out_events;
    into["transfer.migrations"] += m.migrations;
    into["fault.crashes"] += m.instance_crashes;
    into["fault.redispatches"] += m.fault_redispatches;
    into["fault.recoveries"] += m.fault_recoveries;
    auto *sys = r.system.get();
    if (auto *cs = dynamic_cast<windserve::core::ClusterServeSystem *>(sys)) {
        into["core.dispatches"] += cs->total_dispatches();
        into["core.cross_offloads"] += cs->cross_offloads();
        into["core.cross_redispatches"] += cs->cross_redispatches();
        into["kvcache.backups"] += cs->total_backups();
        if (const windserve::sim::LpScheduler *lp = cs->lp()) {
            into["simcore.lp.windows"] += lp->windows();
            into["simcore.lp.hub_phases"] += lp->hub_phases();
            into["simcore.lp.messages"] += lp->messages_posted();
            into["simcore.lp.lps"] += lp->num_lps();
        }
        if (const windserve::ctrl::ControlPlane *cp = cs->ctrl()) {
            into["ctrl.commits"] += cp->commits();
            into["ctrl.applies"] += cp->applies();
            into["ctrl.reproposals"] += cp->reproposals();
            into["ctrl.elections"] += cp->elections();
            into["ctrl.messages_sent"] += cp->messages_sent();
            into["ctrl.messages_dropped"] += cp->messages_dropped();
        }
    } else if (auto *ws =
                   dynamic_cast<windserve::core::WindServeSystem *>(sys)) {
        into["core.dispatches"] +=
            ws->scheduler().coordinator().dispatches();
        into["kvcache.backups"] += ws->backup().backups_taken();
    }
}

/** Layer a self-profiler source name folds into, or "" if unknown. */
std::string
layer_of(const std::string &source)
{
    if (source == "(untagged)")
        return "untagged";
    if (source == "arrival")
        return "core.arrival";
    if (source == "fault")
        return "fault";
    if (source == "transfer/watchdog")
        return "transfer.watchdog";
    if (source == "ctrl" || source.rfind("link/ctrl/", 0) == 0)
        return "ctrl";
    if (source.rfind("link/", 0) == 0)
        return "hw.link";
    auto slash = source.rfind('/');
    if (slash != std::string::npos) {
        std::string stage = source.substr(slash + 1);
        if (stage == "prefill" || stage == "sbd" || stage == "decode" ||
            stage == "pump")
            return "engine." + stage;
    }
    return "";
}

/** Fold @p tel's profiler buckets into @p into by layer. */
void
fold(const windserve::obs::Telemetry &tel, LayerTimes &into,
     std::vector<std::string> &errors)
{
    const windserve::sim::PumpProfiler &p = tel.profiler();
    for (std::size_t i = 0; i < p.num_sources(); ++i) {
        auto id = static_cast<std::uint16_t>(i);
        std::string name = p.name(id);
        std::string layer = layer_of(name);
        if (layer.empty()) {
            errors.push_back("profiler source '" + name +
                             "' folds into no layer");
            continue;
        }
        windserve::sim::PumpProfiler::Bucket b = p.bucket(id);
        double s = static_cast<double>(b.wall_ns) * 1e-9;
        into.events[layer] += b.fired;
        into.self_s[layer] += s;
        into.total_self_s += s;
    }
}

/** Report @p c's keys that differ from @p ref's (keys of @p ref only). */
void
compare_counts(const Counts &ref, const Counts &c, const std::string &what,
               std::vector<std::string> &errors)
{
    for (const auto &[key, value] : ref) {
        auto it = c.find(key);
        std::uint64_t got = it == c.end() ? 0 : it->second;
        if (got != value)
            errors.push_back(what + ": " + key + " " + std::to_string(got) +
                             " != " + std::to_string(value));
    }
}

/**
 * Every fired event must be charged, and at least 95% of them to a
 * named source. LP messages drained into the hub queue carry no source
 * tag, so untagged events up to simcore.lp.messages count as the LP
 * engine's message deliveries; obs.attributed_fraction keeps the
 * profiler's own (stricter) figure.
 */
void
check_attribution(LayerTimes &lt, Counts &counts, TracedResult &out)
{
    std::uint64_t folded = 0;
    for (const std::string &layer : kLayers)
        folded += lt.events[layer];
    double total = static_cast<double>(counts["events"]);
    if (folded != counts["events"])
        out.errors.push_back("profiler charged " + std::to_string(folded) +
                             " events, the run fired " +
                             std::to_string(counts["events"]));
    std::uint64_t untagged = lt.events["untagged"];
    std::uint64_t messages = counts["simcore.lp.messages"];
    double unexplained =
        static_cast<double>(untagged - std::min(untagged, messages));
    out.metrics["obs.attributed_fraction"] =
        ratio(total - static_cast<double>(untagged), total);
    if (total > 0.0 && 1.0 - unexplained / total < 0.95)
        out.errors.push_back("only " +
                             std::to_string(1.0 - unexplained / total) +
                             " of events attributed (< 0.95)");
}

bool
is_cluster(const Replay &r)
{
    auto *cs = dynamic_cast<windserve::core::ClusterServeSystem *>(
        r.system.get());
    return cs && cs->lp();
}

/** One untraced replay of every system of a workload. */
struct PlainRound {
    Counts counts;
    double wall = 0.0; ///< summed run() wall time
    double make_system_s = 0.0;
    double collect_s = 0.0; ///< outside metrics::Collector re-collect
    std::map<std::string, double> run_s; ///< by system_key
    double first_run_s = 0.0; ///< run() wall of the first system
    bool cluster = false;     ///< the first system runs the LP engine
    double audit_events = 0.0;
};

PlainRound
plain_round(const Workload &w, const std::vector<Request> &trace,
            const char *label, TracedResult &out)
{
    PlainRound p;
    for (const ExperimentConfig &cfg : w.systems) {
        Replay r = replay(cfg, trace, run_options(cfg));
        out.replays.emplace_back(label, r.record);
        p.wall += r.record.run_s;
        p.make_system_s += r.record.make_system_s;
        p.run_s[system_key(cfg.system)] = r.record.run_s;
        add_counts(p.counts, r);
        if (&cfg == &w.systems.front()) {
            p.first_run_s = r.record.run_s;
            p.cluster = is_cluster(r);
            if (const auto *aud = r.system->audit())
                p.audit_events = static_cast<double>(aud->events_audited());
        }
        // The outside re-collect must agree with what run() reported.
        auto t0 = Clock::now();
        windserve::metrics::RunMetrics again =
            windserve::metrics::Collector(cfg.scenario.slo)
                .collect(r.result.requests);
        p.collect_s += seconds_since(t0);
        if (again.num_finished != r.result.metrics.num_finished ||
            again.ttft.percentile(99.0) !=
                r.result.metrics.ttft.percentile(99.0))
            out.errors.push_back("metrics::Collector re-collect of " +
                                 r.record.system + " disagrees with run()");
    }
    return p;
}

/** One profiled replay of every system: self-profiler only, no
 *  journal, no periodic sampling. */
struct ProfiledRound {
    LayerTimes layers;
    Counts counts; ///< add_counts() plus "<layer>.events"
    double wall = 0.0;
    std::vector<std::string> errors; ///< unknown source names
};

ProfiledRound
profiled_round(const Workload &w, const std::vector<Request> &trace,
               TracedResult &out)
{
    windserve::obs::TelemetryConfig tc;
    tc.sample_every = 0.0;
    tc.self_profile = true;
    tc.journal = false;
    ProfiledRound q;
    for (const ExperimentConfig &cfg : w.systems) {
        RunOptions opts = run_options(cfg);
        opts.telemetry = tc;
        Replay r = replay(cfg, trace, opts);
        out.replays.emplace_back("telemetry", r.record);
        q.wall += r.record.run_s;
        add_counts(q.counts, r);
        fold(*r.system->telemetry(), q.layers, q.errors);
    }
    for (const std::string &layer : kLayers)
        q.counts[layer + ".events"] = q.layers.events[layer];
    return q;
}

} // namespace

TracedResult
traced_run(const Workload &w, double seconds)
{
    const auto start = Clock::now();
    const ExperimentConfig &cfg0 = w.systems.front();
    TracedResult out;
    auto &m = out.metrics;

    // Set-up figures: median of three trace builds.
    std::vector<Request> trace;
    std::vector<double> trace_s;
    for (int i = 0; i < 3; ++i) {
        auto t0 = Clock::now();
        trace = windserve::harness::make_trace(cfg0);
        trace_s.push_back(seconds_since(t0));
    }
    m["workload.make_trace_s"] = median(trace_s);

    // Untraced replays with the timed runs' options. The first round
    // only warms the heap up; the second is the reference for the
    // diagnostics and the deterministic counts.
    plain_round(w, trace, "warmup", out);
    const PlainRound ref = plain_round(w, trace, "plain", out);
    const Counts &plain = ref.counts;
    std::vector<PlainRound> plains{ref};

    // Attachment diagnostics on the first system.
    double audit_events = ref.audit_events;
    {
        ExperimentConfig toggled = cfg0;
        toggled.audit = !cfg0.audit;
        Replay r = replay(toggled, trace, run_options(toggled));
        out.replays.emplace_back(toggled.audit ? "audit" : "no_audit",
                                 r.record);
        double audited = cfg0.audit ? ref.first_run_s : r.record.run_s;
        double bare = cfg0.audit ? r.record.run_s : ref.first_run_s;
        m["audit.overhead"] = ratio(audited, bare);
        if (const auto *aud = r.system->audit())
            audit_events = static_cast<double>(aud->events_audited());
    }
    m["audit.events_audited"] = audit_events;
    std::size_t threads = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, 4);
    m["simcore.lp.speedup_t4"] = 0.0;
    if (ref.cluster) {
        ExperimentConfig par = cfg0;
        par.intra_threads = threads;
        Replay r = replay(par, trace, run_options(par));
        out.replays.emplace_back(
            "intra_threads=" + std::to_string(threads), r.record);
        m["simcore.lp.speedup_t4"] = ratio(ref.first_run_s, r.record.run_s);
    }
    {
        // Every attachment but the trace recorder (whose export costs
        // ~10x the run at 512 GPUs) at once, on the parallel engine.
        ExperimentConfig all = cfg0;
        all.audit = true;
        all.intra_threads = threads;
        RunOptions opts = run_options(all);
        opts.telemetry = windserve::obs::TelemetryConfig{};
        Replay r = replay(all, trace, opts);
        out.replays.emplace_back("all_attachments", r.record);
    }

    LayerReplays lr = layer_replays(cfg0.scenario, trace, cfg0.seed);
    m["kvcache.grow_calls"] = static_cast<double>(lr.grow_calls);
    m["kvcache.grow_ns"] = lr.grow_ns;
    m["core.balancer.route_ns"] = lr.route_ns;
    m["model.sampler_ns"] = lr.sampler_ns;

    // Pairs of an untraced and a profiled round, until time is up.
    std::vector<ProfiledRound> profs;
    std::vector<double> overhead, outside;
    do {
        plains.push_back(plain_round(w, trace, "plain", out));
        compare_counts(plain, plains.back().counts, "two untraced runs",
                       out.errors);
        ProfiledRound q = profiled_round(w, trace, out);
        if (profs.empty()) {
            out.errors.insert(out.errors.end(), q.errors.begin(),
                              q.errors.end());
            compare_counts(plain, q.counts, "profiled vs untraced run",
                           out.errors);
            check_attribution(q.layers, q.counts, out);
        } else {
            compare_counts(profs.front().counts, q.counts,
                           "two profiled runs", out.errors);
        }
        overhead.push_back(ratio(q.wall, plains.back().wall));
        outside.push_back(q.wall - q.layers.total_self_s);
        profs.push_back(std::move(q));
    } while (profs.size() < 2 || seconds_since(start) < seconds);

    m["obs.profile_overhead"] = median(overhead);
    m["simcore.outside_events_s"] = median(outside);
    for (const std::string &layer : kLayers) {
        std::vector<double> self;
        for (ProfiledRound &q : profs)
            self.push_back(q.layers.self_s[layer]);
        m[layer + ".events"] =
            static_cast<double>(profs.front().layers.events[layer]);
        m[layer + ".self_s"] = median(self);
    }
    auto over_plains = [&](auto field) {
        std::vector<double> xs;
        for (const PlainRound &p : plains)
            xs.push_back(field(p));
        return median(xs);
    };
    m["harness.make_system_s"] =
        over_plains([](const PlainRound &p) { return p.make_system_s; });
    m["metrics.collect_s"] =
        over_plains([](const PlainRound &p) { return p.collect_s; });
    for (const char *k : {"windserve", "distserve", "vllm"})
        m[std::string("engine.run_s.") + k] =
            over_plains([&](const PlainRound &p) {
                auto it = p.run_s.find(k);
                return it == p.run_s.end() ? 0.0 : it->second;
            });

    auto count = [&](const char *key) {
        auto it = plain.find(key);
        return it == plain.end() ? 0.0 : static_cast<double>(it->second);
    };
    m["simcore.events"] = count("events");
    for (const char *key :
         {"simcore.lp.windows", "simcore.lp.hub_phases", "simcore.lp.messages",
          "core.dispatches", "core.cross_offloads", "core.cross_redispatches",
          "ctrl.commits", "ctrl.applies", "ctrl.reproposals", "ctrl.elections",
          "ctrl.messages_sent", "ctrl.messages_dropped", "kvcache.backups",
          "kvcache.swap_outs", "transfer.migrations", "fault.crashes",
          "fault.redispatches", "fault.recoveries"})
        m[key] = count(key);
    m["simcore.lp.lp_slots_per_event"] =
        ratio(count("simcore.lp.windows") * count("simcore.lp.lps"),
              count("events"));
    m["ctrl.apply_ratio"] = ratio(count("ctrl.applies"), count("ctrl.commits"));
    m["fault.recovery_ratio"] =
        ratio(count("fault.recoveries"), count("fault.redispatches"));
    return out;
}

} // namespace simbench
