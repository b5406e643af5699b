/**
 * @file
 * Sim-time metrics: typed instruments sampled into time series.
 *
 * A MetricRegistry holds three instrument kinds:
 *  - gauges: pull callbacks read on every sample tick (queue depth, KV
 *    occupancy, link bytes in flight, busy fraction, up/down state);
 *  - counters: pull callbacks returning a monotone cumulative count
 *    (iterations, swap events, aborts) sampled the same way;
 *  - histograms: push instruments with log-spaced buckets (decode batch
 *    sizes, prefill pass tokens), accumulated over the whole run.
 *
 * Sampling is driven by the owning run (obs::Telemetry hooks the
 * Simulator's batch boundary), so a sample at tick τ reflects the state
 * after every event with timestamp <= τ — a pure function of the
 * simulation, byte-identical at any `--jobs N`. In a multi-pod run the
 * sample is taken at an LP window boundary and may also see pod events
 * up to one window past τ (simcore/lp.hpp).
 *
 * Export targets:
 *  - prometheus_text(): Prometheus exposition format (final values;
 *    histograms with cumulative `_bucket{le=...}` plus `_sum`/`_count`);
 *  - csv(): the sampled time series in long form
 *    (`time,family,labels,value`);
 *  - merge_counter_tracks(): replay every sample as Chrome-trace
 *    counter events so Perfetto renders utilization curves alongside
 *    the span trace.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace windserve::obs {

class TraceRecorder;

/** Shortest exact decimal form of @p v (round-trips through strtod):
 *  integers render as "42", not "42.000...". */
std::string fmt_num(double v);

/** @p s escaped for the inside of a JSON string literal: `"` and `\`
 *  backslashed, `\n` and `\t` as such, other control characters as
 *  `\u00XX`. */
std::string json_escape(const std::string &s);

/**
 * Log-bucketed histogram: bucket upper bounds grow geometrically from
 * `first_bound` by `growth`, with a final +inf bucket. observe() is a
 * branch-light loop over <= 64 bounds; bucket boundaries are INCLUSIVE
 * upper bounds (Prometheus `le` semantics: a value equal to a bound
 * lands in that bound's bucket).
 */
class Histogram
{
  public:
    struct Options {
        double first_bound = 1.0; ///< upper bound of the first bucket
        double growth = 2.0;      ///< geometric bound growth (> 1)
        std::size_t num_buckets = 16; ///< finite buckets (then +inf)
    };

    explicit Histogram(Options o);

    /** Record one observation (negative values clamp into bucket 0). */
    void observe(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    /** Finite upper bounds, ascending (size num_buckets). */
    const std::vector<double> &bounds() const { return bounds_; }

    /** Per-bucket counts; index bounds().size() is the +inf bucket. */
    const std::vector<std::uint64_t> &bucket_counts() const
    {
        return counts_;
    }

    /** Index of the bucket @p v falls into (last = overflow). */
    std::size_t bucket_index(double v) const;

  private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_; ///< bounds_.size() + 1 entries
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/** See file comment. */
class MetricRegistry
{
  public:
    /** Pull callback of a gauge/counter instrument. */
    using Pull = std::function<double()>;

    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /**
     * Register a gauge under @p family with a preformatted Prometheus
     * label set (e.g. `instance="decode",queue="prefill"`; empty for
     * none). @p help is attached to the family on first registration.
     */
    void gauge(std::string family, std::string labels, Pull pull,
               std::string help = "");

    /** Register a monotone cumulative counter (same shape as gauge()). */
    void counter(std::string family, std::string labels, Pull pull,
                 std::string help = "");

    /**
     * Register a histogram; the returned pointer stays valid for the
     * registry's lifetime and is the push endpoint for observations.
     */
    Histogram *histogram(std::string family, std::string labels,
                         Histogram::Options opts, std::string help = "");

    /** Sample every pull instrument at sim time @p t (appends one row
     *  to each series). Ticks must be strictly increasing. */
    void sample(double t);

    // ------------------------------------------------------------------
    // introspection (tests, queries)
    // ------------------------------------------------------------------

    std::size_t num_samples() const { return times_.size(); }
    std::size_t num_instruments() const { return instruments_.size(); }
    std::size_t num_families() const;
    const std::vector<double> &sample_times() const { return times_; }

    /** Sampled series of the instrument registered under
     *  (family, labels); throws std::out_of_range when unknown. */
    const std::vector<double> &series(const std::string &family,
                                      const std::string &labels) const;

    /** Last sampled value (or a live pull when never sampled). */
    double last_value(const std::string &family,
                      const std::string &labels) const;

    // ------------------------------------------------------------------
    // exporters
    // ------------------------------------------------------------------

    /** Prometheus exposition text (final values, HELP/TYPE per family). */
    std::string prometheus_text() const;

    /** Sampled time series, long form: `time,family,labels,value`. */
    std::string csv() const;

    /** Replay every sample as counter events on @p rec (process
     *  "telemetry"), giving Perfetto counter tracks next to the spans. */
    void merge_counter_tracks(TraceRecorder &rec) const;

  private:
    enum class Kind { Gauge, Counter, Hist };

    struct Instrument {
        Kind kind;
        std::string family;
        std::string labels;
        Pull pull;                       ///< gauge/counter
        std::unique_ptr<Histogram> hist; ///< histogram
        std::vector<double> values;      ///< sampled series
    };

    struct Family {
        std::string name;
        std::string help;
        Kind kind;
    };

    const Instrument *find(const std::string &family,
                           const std::string &labels) const;
    void note_family(const std::string &family, const std::string &help,
                     Kind kind);

    std::vector<Instrument> instruments_; ///< registration order
    std::vector<Family> families_;        ///< first-seen order
    std::vector<double> times_;
};

} // namespace windserve::obs
