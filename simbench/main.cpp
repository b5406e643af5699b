/**
 * @file
 * simbench: times one benchmark workload of the WindServe simulator
 * from the outside and prints the raw figures as one JSON line.
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--iterations K]
 *
 * --trace 0 (timed run): repeats set-up (make_trace + make_system for
 * every system of the workload) and run() until S seconds have passed,
 * or exactly K times with --iterations. Each iteration reports its
 * timings, events, checksum and request outcome; peak RSS is the whole
 * process's (getrusage), so run one workload per process.
 *
 * --trace 1 (traced run): per-layer figures, see traced.hpp.
 *
 * run.py builds this program, gates the checksums against
 * expected.json, and turns the raw figures into the benchmark's
 * metrics. Exit code 2 means bad arguments, 1 a failed run.
 */
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "traced.hpp"
#include "workloads.hpp"

namespace {

using simbench::RunRecord;

constexpr int kSetupRounds = 50;

/** Minimal JSON emitter for flat records (numbers at full precision). */
class Json
{
  public:
    Json() { out_.precision(17); }
    Json &open(char c)
    {
        sep();
        out_ << c;
        first_ = true;
        return *this;
    }
    Json &close(char c)
    {
        out_ << c;
        first_ = false;
        return *this;
    }
    Json &key(const std::string &k)
    {
        sep();
        str(k);
        out_ << ':';
        first_ = true;
        return *this;
    }
    Json &value(double v)
    {
        sep();
        if (std::isfinite(v))
            out_ << v;
        else
            out_ << "null";
        return *this;
    }
    Json &value(std::uint64_t v)
    {
        sep();
        out_ << v;
        return *this;
    }
    Json &value(const std::string &s)
    {
        sep();
        str(s);
        return *this;
    }
    std::string text() const { return out_.str(); }

  private:
    void sep()
    {
        if (!first_)
            out_ << ',';
        first_ = false;
    }
    void str(const std::string &s)
    {
        out_ << '"';
        for (char c : s) {
            if (c == '"' || c == '\\')
                out_ << '\\' << c;
            else if (static_cast<unsigned char>(c) < 0x20)
                out_ << ' ';
            else
                out_ << c;
        }
        out_ << '"';
    }
    std::ostringstream out_;
    bool first_ = true;
};

void
emit_record(Json &j, const RunRecord &r)
{
    j.open('{');
    j.key("system").value(r.system);
    j.key("make_system_s").value(r.make_system_s);
    j.key("run_s").value(r.run_s);
    j.key("events").value(r.events);
    j.key("checksum").value(std::to_string(r.checksum));
    j.key("requests").value(static_cast<std::uint64_t>(r.requests));
    j.key("finished").value(static_cast<std::uint64_t>(r.finished));
    j.key("unfinished").value(static_cast<std::uint64_t>(r.unfinished));
    j.key("aborted").value(static_cast<std::uint64_t>(r.aborted));
    j.key("ttft_p99_s").value(r.ttft_p99_s);
    j.key("slo_attainment").value(r.slo_attainment);
    j.close('}');
}

std::string
timed_run(const simbench::Workload &w, double seconds, long iterations)
{
    using simbench::Clock;
    using simbench::seconds_since;
    Json j;
    j.open('{').key("mode").value(std::string("timed"));
    j.key("iterations").open('[');
    const auto start = Clock::now();
    for (long i = 0;
         iterations > 0 ? i < iterations
                        : (i < 4 || seconds_since(start) < seconds);
         ++i) {
        auto t0 = Clock::now();
        auto trace = windserve::harness::make_trace(w.systems.front());
        double trace_s = seconds_since(t0);
        j.open('{').key("make_trace_s").value(trace_s);
        j.key("runs").open('[');
        for (const auto &cfg : w.systems) {
            simbench::Replay r =
                simbench::replay(cfg, trace, simbench::run_options(cfg));
            emit_record(j, r.record);
        }
        j.close(']').close('}');
    }
    j.close(']');
    // Extra set-up rounds (no run), so set-up time is a median of many.
    j.key("setups").open('[');
    for (int i = 0; i < kSetupRounds; ++i) {
        auto t0 = Clock::now();
        auto trace = windserve::harness::make_trace(w.systems.front());
        std::vector<std::unique_ptr<windserve::engine::ServingSystem>> built;
        for (const auto &cfg : w.systems)
            built.push_back(windserve::harness::make_system(cfg));
        j.value(seconds_since(t0)); // tear-down stays untimed
    }
    j.close(']');
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    j.key("peak_rss_kb").value(static_cast<std::uint64_t>(ru.ru_maxrss));
    j.close('}');
    return j.text();
}

std::string
traced(const simbench::Workload &w, double seconds)
{
    simbench::TracedResult t = simbench::traced_run(w, seconds);
    Json j;
    j.open('{').key("mode").value(std::string("traced"));
    j.key("replays").open('[');
    for (const auto &[label, rec] : t.replays) {
        j.open('{').key("label").value(label).key("record");
        emit_record(j, rec);
        j.close('}');
    }
    j.close(']');
    j.key("errors").open('[');
    for (const std::string &e : t.errors)
        j.value(e);
    j.close(']');
    j.key("metrics").open('{');
    for (const auto &[name, v] : t.metrics)
        j.key(name).value(v);
    j.close('}').close('}');
    return j.text();
}

int
usage()
{
    std::cerr << "usage: simbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--iterations K]\nworkloads:";
    for (const std::string &n : simbench::workload_names())
        std::cerr << ' ' << n;
    std::cerr << '\n';
    return 2;
}

/** Parse a whole-string number; false on garbage or trailing text. */
template <typename T>
bool
parse(const std::string &s, T &out)
{
    std::istringstream in(s);
    in >> out;
    return !s.empty() && in && in.peek() == std::char_traits<char>::eof();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    long trace = -1, iterations = 0;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string val = argv[++i];
        bool ok = true;
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            ok = have_seed = parse(val, seed);
        else if (arg == "--seconds")
            ok = parse(val, seconds) && seconds > 0.0;
        else if (arg == "--trace")
            ok = parse(val, trace) && (trace == 0 || trace == 1);
        else if (arg == "--iterations")
            ok = parse(val, iterations) && iterations > 0;
        else
            ok = false;
        if (!ok)
            return usage();
    }
    if (workload.empty() || !have_seed || seconds <= 0.0 || trace < 0)
        return usage();

    simbench::Workload w;
    try {
        w = simbench::make_workload(workload, seed);
    } catch (const std::invalid_argument &e) {
        std::cerr << "simbench: " << e.what() << '\n';
        return usage();
    }
    try {
        std::cout << (trace ? traced(w, seconds)
                            : timed_run(w, seconds, iterations))
                  << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "simbench: run failed: " << e.what() << '\n';
        return 1;
    }
    return 0;
}
