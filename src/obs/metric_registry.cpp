#include "obs/metric_registry.hpp"

#include <cstdio>
#include <stdexcept>

#include "obs/trace_recorder.hpp"

namespace windserve::obs {

std::string
fmt_num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    // Prefer the shortest representation that still round-trips.
    for (int prec = 1; prec < 17; ++prec) {
        char probe[32];
        std::snprintf(probe, sizeof probe, "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(probe, "%lf", &back);
        if (back == v)
            return probe;
    }
    return buf;
}

std::string
json_escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

Histogram::Histogram(Options o)
{
    if (o.num_buckets == 0 || o.num_buckets > 64)
        throw std::invalid_argument("Histogram: 1..64 finite buckets");
    if (!(o.first_bound > 0.0) || !(o.growth > 1.0))
        throw std::invalid_argument(
            "Histogram: first_bound > 0 and growth > 1 required");
    bounds_.reserve(o.num_buckets);
    double b = o.first_bound;
    for (std::size_t i = 0; i < o.num_buckets; ++i) {
        bounds_.push_back(b);
        b *= o.growth;
    }
    counts_.assign(o.num_buckets + 1, 0);
}

std::size_t
Histogram::bucket_index(double v) const
{
    for (std::size_t i = 0; i < bounds_.size(); ++i)
        if (v <= bounds_[i])
            return i;
    return bounds_.size(); // +inf bucket
}

void
Histogram::observe(double v)
{
    ++counts_[bucket_index(v)];
    ++count_;
    sum_ += v;
}

// ---------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------

void
MetricRegistry::note_family(const std::string &family,
                            const std::string &help, Kind kind)
{
    for (const Family &f : families_) {
        if (f.name == family) {
            if (f.kind != kind)
                throw std::logic_error(
                    "MetricRegistry: family '" + family +
                    "' registered with two instrument kinds");
            return;
        }
    }
    families_.push_back(Family{family, help, kind});
}

void
MetricRegistry::gauge(std::string family, std::string labels, Pull pull,
                      std::string help)
{
    note_family(family, help, Kind::Gauge);
    Instrument in;
    in.kind = Kind::Gauge;
    in.family = std::move(family);
    in.labels = std::move(labels);
    in.pull = std::move(pull);
    instruments_.push_back(std::move(in));
}

void
MetricRegistry::counter(std::string family, std::string labels, Pull pull,
                        std::string help)
{
    note_family(family, help, Kind::Counter);
    Instrument in;
    in.kind = Kind::Counter;
    in.family = std::move(family);
    in.labels = std::move(labels);
    in.pull = std::move(pull);
    instruments_.push_back(std::move(in));
}

Histogram *
MetricRegistry::histogram(std::string family, std::string labels,
                          Histogram::Options opts, std::string help)
{
    note_family(family, help, Kind::Hist);
    Instrument in;
    in.kind = Kind::Hist;
    in.family = std::move(family);
    in.labels = std::move(labels);
    in.hist = std::make_unique<Histogram>(opts);
    instruments_.push_back(std::move(in));
    return instruments_.back().hist.get();
}

void
MetricRegistry::sample(double t)
{
    times_.push_back(t);
    for (Instrument &in : instruments_) {
        if (in.kind == Kind::Hist)
            continue;
        in.values.push_back(in.pull ? in.pull() : 0.0);
    }
}

std::size_t
MetricRegistry::num_families() const
{
    return families_.size();
}

const MetricRegistry::Instrument *
MetricRegistry::find(const std::string &family,
                     const std::string &labels) const
{
    for (const Instrument &in : instruments_)
        if (in.family == family && in.labels == labels)
            return &in;
    return nullptr;
}

const std::vector<double> &
MetricRegistry::series(const std::string &family,
                       const std::string &labels) const
{
    const Instrument *in = find(family, labels);
    if (in == nullptr || in->kind == Kind::Hist)
        throw std::out_of_range("MetricRegistry::series: no sampled "
                                "instrument " +
                                family + "{" + labels + "}");
    return in->values;
}

double
MetricRegistry::last_value(const std::string &family,
                           const std::string &labels) const
{
    const Instrument *in = find(family, labels);
    if (in == nullptr || in->kind == Kind::Hist)
        throw std::out_of_range("MetricRegistry::last_value: no sampled "
                                "instrument " +
                                family + "{" + labels + "}");
    if (!in->values.empty())
        return in->values.back();
    return in->pull ? in->pull() : 0.0;
}

std::string
MetricRegistry::prometheus_text() const
{
    std::string out;
    for (const Family &f : families_) {
        if (!f.help.empty())
            out += "# HELP " + f.name + " " + f.help + "\n";
        const char *type = f.kind == Kind::Counter ? "counter"
                           : f.kind == Kind::Hist ? "histogram"
                                                  : "gauge";
        out += "# TYPE " + f.name + " " + type + "\n";
        for (const Instrument &in : instruments_) {
            if (in.family != f.name)
                continue;
            if (in.kind == Kind::Hist) {
                const Histogram &h = *in.hist;
                std::uint64_t cum = 0;
                const std::string sep = in.labels.empty() ? "" : ",";
                for (std::size_t b = 0; b < h.bounds().size(); ++b) {
                    cum += h.bucket_counts()[b];
                    out += f.name + "_bucket{" + in.labels + sep +
                           "le=\"" + fmt_num(h.bounds()[b]) + "\"} " +
                           std::to_string(cum) + "\n";
                }
                cum += h.bucket_counts().back();
                out += f.name + "_bucket{" + in.labels + sep +
                       "le=\"+Inf\"} " + std::to_string(cum) + "\n";
                out += f.name + "_sum" +
                       (in.labels.empty() ? "" : "{" + in.labels + "}") +
                       " " + fmt_num(h.sum()) + "\n";
                out += f.name + "_count" +
                       (in.labels.empty() ? "" : "{" + in.labels + "}") +
                       " " + std::to_string(h.count()) + "\n";
                continue;
            }
            double v = !in.values.empty() ? in.values.back()
                       : in.pull         ? in.pull()
                                         : 0.0;
            out += f.name;
            if (!in.labels.empty())
                out += "{" + in.labels + "}";
            out += " " + fmt_num(v) + "\n";
        }
    }
    return out;
}

std::string
MetricRegistry::csv() const
{
    // RFC 4180 quoting: the labels field contains `"` and `,`, so it is
    // quoted with inner quotes doubled — stock csv parsers round-trip it.
    auto quote = [](const std::string &s) {
        std::string q = "\"";
        for (char c : s) {
            q += c;
            if (c == '"')
                q += '"';
        }
        q += '"';
        return q;
    };
    std::string out = "time,family,labels,value\n";
    for (std::size_t i = 0; i < times_.size(); ++i) {
        for (const Instrument &in : instruments_) {
            if (in.kind == Kind::Hist)
                continue;
            out += fmt_num(times_[i]) + "," + in.family + "," +
                   quote(in.labels) + "," + fmt_num(in.values[i]) + "\n";
        }
    }
    return out;
}

void
MetricRegistry::merge_counter_tracks(TraceRecorder &rec) const
{
    for (const Instrument &in : instruments_) {
        if (in.kind == Kind::Hist)
            continue;
        std::string name = in.family;
        if (!in.labels.empty())
            name += "{" + in.labels + "}";
        for (std::size_t i = 0; i < times_.size(); ++i)
            rec.counter_at(times_[i], "telemetry", name, in.values[i]);
    }
}

} // namespace windserve::obs
