#include "obs/trace_recorder.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "obs/metric_registry.hpp"
#include "workload/request.hpp"
#include "workload/trace_io.hpp"

namespace windserve::obs {

const char *
to_string(Category cat)
{
    switch (cat) {
      case Category::Request:
        return "request";
      case Category::Gpu:
        return "gpu";
      case Category::Transfer:
        return "transfer";
      case Category::Scheduler:
        return "scheduler";
      case Category::Counter:
        return "counter";
      case Category::Fault:
        return "fault";
    }
    return "unknown";
}

TraceArg
num_arg(std::string key, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return TraceArg{std::move(key), buf, false};
}

TraceArg
num_arg(std::string key, std::uint64_t value)
{
    return TraceArg{std::move(key), std::to_string(value), false};
}

TraceArg
str_arg(std::string key, std::string value)
{
    return TraceArg{std::move(key), std::move(value), true};
}

std::uint32_t
TraceRecorder::intern_pid(const std::string &process)
{
    auto it = pid_by_name_.find(process);
    if (it != pid_by_name_.end())
        return it->second;
    processes_.push_back(process);
    std::uint32_t pid = static_cast<std::uint32_t>(processes_.size());
    pid_by_name_.emplace(process, pid);
    return pid;
}

std::uint32_t
TraceRecorder::intern_tid(std::uint32_t pid, const std::string &track)
{
    std::string key = std::to_string(pid) + "/" + track;
    auto it = tid_by_key_.find(key);
    if (it != tid_by_key_.end())
        return it->second;
    tracks_.push_back(Track{pid, track});
    std::uint32_t tid = static_cast<std::uint32_t>(tracks_.size());
    tid_by_key_.emplace(std::move(key), tid);
    return tid;
}

void
TraceRecorder::span(Category cat, const std::string &process,
                    const std::string &track, const std::string &name,
                    double start, double dur, std::vector<TraceArg> args)
{
    TraceEvent e;
    e.phase = 'X';
    e.cat = cat;
    e.name = name;
    e.ts = start;
    e.dur = dur;
    e.pid = intern_pid(process);
    e.tid = intern_tid(e.pid, track);
    e.args = std::move(args);
    events_.push_back(std::move(e));
}

void
TraceRecorder::async_span(Category cat, const std::string &process,
                          const std::string &name, std::uint64_t id,
                          double start, double end,
                          std::vector<TraceArg> args)
{
    std::uint32_t pid = intern_pid(process);
    TraceEvent b;
    b.phase = 'b';
    b.cat = cat;
    b.name = name;
    b.ts = start;
    b.pid = pid;
    b.tid = 0;
    b.id = id;
    b.has_id = true;
    b.args = std::move(args);
    events_.push_back(std::move(b));

    TraceEvent e;
    e.phase = 'e';
    e.cat = cat;
    e.name = name;
    e.ts = end;
    e.pid = pid;
    e.tid = 0;
    e.id = id;
    e.has_id = true;
    events_.push_back(std::move(e));
}

void
TraceRecorder::instant(double ts, Category cat, const std::string &process,
                       const std::string &track, const std::string &name,
                       std::vector<TraceArg> args)
{
    TraceEvent e;
    e.phase = 'i';
    e.cat = cat;
    e.name = name;
    e.ts = ts;
    e.pid = intern_pid(process);
    e.tid = intern_tid(e.pid, track);
    e.args = std::move(args);
    events_.push_back(std::move(e));
}

void
TraceRecorder::counter_at(double ts, const std::string &process,
                          const std::string &name, double value)
{
    TraceEvent e;
    e.phase = 'C';
    e.cat = Category::Counter;
    e.name = name;
    e.ts = ts;
    e.pid = intern_pid(process);
    e.tid = 0;
    e.args.push_back(num_arg("value", value));
    events_.push_back(std::move(e));
}

void
TraceRecorder::record_request_lifecycle(const workload::Request &r)
{
    using workload::kNoTime;
    const std::uint64_t id = r.id;
    auto have = [](double t) { return t != kNoTime; };

    if (r.finished() && have(r.finish_time)) {
        async_span(Category::Request, "requests", "request", id,
                   r.arrival_time, r.finish_time,
                   {num_arg("prompt", std::uint64_t(r.prompt_tokens)),
                    num_arg("output", std::uint64_t(r.output_tokens)),
                    num_arg("swap_outs", std::uint64_t(r.swap_outs)),
                    num_arg("migrations", std::uint64_t(r.migrations)),
                    num_arg("dispatched",
                            std::uint64_t(r.prefill_dispatched ? 1 : 0))});
    }
    if (have(r.prefill_enqueue_time) && have(r.prefill_start_time)) {
        async_span(Category::Request, "requests", "queue-prefill", id,
                   r.prefill_enqueue_time, r.prefill_start_time);
    }
    if (have(r.prefill_start_time) && have(r.first_token_time)) {
        async_span(Category::Request, "requests", "prefill", id,
                   r.prefill_start_time, r.first_token_time,
                   {num_arg("tokens", std::uint64_t(r.prompt_tokens))});
    }
    if (have(r.first_token_time) && have(r.transfer_done_time) &&
        r.transfer_done_time > r.first_token_time) {
        async_span(Category::Request, "requests", "kv-transfer", id,
                   r.first_token_time, r.transfer_done_time);
    }
    if (have(r.decode_enqueue_time) && have(r.decode_start_time)) {
        async_span(Category::Request, "requests", "queue-decode", id,
                   r.decode_enqueue_time, r.decode_start_time);
    }
    if (have(r.decode_start_time) && r.finished() && have(r.finish_time)) {
        async_span(Category::Request, "requests", "decode", id,
                   r.decode_start_time, r.finish_time,
                   {num_arg("tokens", std::uint64_t(r.generated))});
    }
    if (!r.finished()) {
        TraceEvent e;
        e.phase = 'i';
        e.cat = Category::Request;
        e.name = "unfinished";
        e.ts = have(r.last_token_time) ? r.last_token_time : r.arrival_time;
        e.pid = intern_pid("requests");
        e.tid = intern_tid(e.pid, "unfinished");
        e.args.push_back(num_arg("req", id));
        e.args.push_back(str_arg("state", to_string(r.state)));
        events_.push_back(std::move(e));
    }
}

std::size_t
TraceRecorder::count(Category cat) const
{
    std::size_t n = 0;
    for (const auto &e : events_)
        if (e.cat == cat)
            ++n;
    return n;
}

namespace {

/** Seconds -> microseconds with fixed precision (determinism matters:
 *  the same run must serialise to the same bytes at any --jobs). */
void
emit_us(std::ostream &out, double seconds)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
    out << buf;
}

void
emit_escaped(std::ostream &out, const std::string &s)
{
    out << '"' << json_escape(s) << '"';
}

void
emit_args(std::ostream &out, const std::vector<TraceArg> &args)
{
    out << "{";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (i)
            out << ",";
        emit_escaped(out, args[i].key);
        out << ":";
        if (args[i].quoted)
            emit_escaped(out, args[i].value);
        else
            out << args[i].value;
    }
    out << "}";
}

} // namespace

void
TraceRecorder::write_chrome_json(std::ostream &out) const
{
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out << ",";
        first = false;
        out << "\n";
    };

    // Metadata: name every process and track so Perfetto shows
    // instance/GPU labels instead of bare pids.
    for (std::size_t p = 0; p < processes_.size(); ++p) {
        sep();
        out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << (p + 1)
            << ",\"tid\":0,\"args\":{\"name\":";
        emit_escaped(out, processes_[p]);
        out << "}}";
    }
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
        sep();
        out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
            << tracks_[t].pid << ",\"tid\":" << (t + 1)
            << ",\"args\":{\"name\":";
        emit_escaped(out, tracks_[t].name);
        out << "}}";
    }

    for (const auto &e : events_) {
        sep();
        out << "{\"ph\":\"" << e.phase << "\",\"cat\":\""
            << obs::to_string(e.cat) << "\",\"name\":";
        emit_escaped(out, e.name);
        out << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid << ",\"ts\":";
        emit_us(out, e.ts);
        if (e.phase == 'X') {
            out << ",\"dur\":";
            emit_us(out, e.dur);
        }
        if (e.has_id)
            out << ",\"id\":" << e.id;
        if (e.phase == 'i')
            out << ",\"s\":\"t\"";
        if (!e.args.empty()) {
            out << ",\"args\":";
            emit_args(out, e.args);
        }
        out << "}";
    }
    out << "\n]}\n";
}

std::string
TraceRecorder::chrome_json() const
{
    std::ostringstream out;
    write_chrome_json(out);
    return out.str();
}

std::string
TraceRecorder::request_csv(const std::vector<workload::Request> &requests)
{
    std::ostringstream out;
    workload::write_results_csv(out, requests);
    return out.str();
}

} // namespace windserve::obs
