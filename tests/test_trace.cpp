/**
 * @file
 * Tests for the structured trace subsystem (src/obs/): span invariants
 * on a real traced run, Chrome-trace JSON well-formedness via a minimal
 * parser, determinism across sweep thread counts, and the
 * null-recorder fast path (tracing off changes nothing).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <stdexcept>

#include "windserve/windserve.hpp"

using namespace windserve;

namespace {

// ---------------------------------------------------------------------
// Minimal JSON parser (round-trip check only: structure + strings +
// numbers; no unicode decoding). Throws std::runtime_error on any
// malformed input.
// ---------------------------------------------------------------------

struct JsonValue {
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> items;
    std::multimap<std::string, JsonValue> fields;

    const JsonValue &at(const std::string &key) const
    {
        auto it = fields.find(key);
        if (it == fields.end())
            throw std::runtime_error("missing key " + key);
        return it->second;
    }
    bool has(const std::string &key) const
    {
        return fields.find(key) != fields.end();
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    JsonValue parse()
    {
        JsonValue v = value();
        skip_ws();
        if (pos_ != s_.size())
            fail("trailing content");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &why)
    {
        throw std::runtime_error("json error at " + std::to_string(pos_) +
                                 ": " + why);
    }
    void skip_ws()
    {
        while (pos_ < s_.size() && std::isspace(
                                       static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }
    char peek()
    {
        if (pos_ >= s_.size())
            fail("unexpected end");
        return s_[pos_];
    }
    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }
    JsonValue value()
    {
        skip_ws();
        switch (peek()) {
          case '{':
            return object();
          case '[':
            return array();
          case '"': {
            JsonValue v;
            v.kind = JsonValue::String;
            v.str = string();
            return v;
          }
          case 't':
          case 'f':
          case 'n':
            return literal();
          default:
            return number();
        }
    }
    JsonValue object()
    {
        JsonValue v;
        v.kind = JsonValue::Object;
        expect('{');
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skip_ws();
            std::string key = string();
            skip_ws();
            expect(':');
            v.fields.emplace(std::move(key), value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }
    JsonValue array()
    {
        JsonValue v;
        v.kind = JsonValue::Array;
        expect('[');
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.items.push_back(value());
            skip_ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }
    std::string string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            char e = s_[pos_++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out += e;
                break;
              case 'b':
              case 'f':
              case 'n':
              case 'r':
              case 't':
                out += ' ';
                break;
              case 'u':
                for (int i = 0; i < 4; ++i)
                    if (!std::isxdigit(static_cast<unsigned char>(
                            s_.at(pos_ + static_cast<std::size_t>(i)))))
                        fail("bad \\u escape");
                pos_ += 4;
                out += '?';
                break;
              default:
                fail("bad escape");
            }
        }
    }
    JsonValue number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected value");
        JsonValue v;
        v.kind = JsonValue::Number;
        v.num = std::stod(s_.substr(start, pos_ - start));
        return v;
    }
    JsonValue literal()
    {
        for (const char *word : {"true", "false", "null"})
            if (s_.compare(pos_, std::string(word).size(), word) == 0) {
                pos_ += std::string(word).size();
                JsonValue v;
                v.kind = word[0] == 'n' ? JsonValue::Null : JsonValue::Bool;
                return v;
            }
        fail("bad literal");
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

// A small-but-busy traced WindServe run shared by several tests.
harness::ExperimentConfig
small_cell(harness::SystemKind kind = harness::SystemKind::WindServe)
{
    harness::ExperimentConfig cfg;
    cfg.scenario = harness::Scenario::opt13b_sharegpt();
    cfg.system = kind;
    cfg.per_gpu_rate = 5.0; // loaded enough to swap / dispatch
    cfg.num_requests = 80;
    return cfg;
}

engine::RunResult
traced_run(engine::ServingSystem &sys, const harness::ExperimentConfig &cfg)
{
    engine::RunOptions opts;
    opts.tracing = true;
    opts.slo = cfg.scenario.slo;
    opts.horizon = cfg.horizon;
    return sys.run(harness::make_trace(cfg), opts);
}

} // namespace

TEST(Trace, SpanOrderingAndNestingInvariants)
{
    auto cfg = small_cell();
    auto sys = harness::make_system(cfg);
    auto run = traced_run(*sys, cfg);
    const obs::TraceRecorder &rec = *sys->trace();
    ASSERT_GT(rec.num_events(), 0u);

    // All four structural categories show up in a loaded run.
    EXPECT_GT(rec.count(obs::Category::Request), 0u);
    EXPECT_GT(rec.count(obs::Category::Gpu), 0u);
    EXPECT_GT(rec.count(obs::Category::Transfer), 0u);
    EXPECT_GT(rec.count(obs::Category::Scheduler), 0u);

    std::map<std::pair<std::uint64_t, std::string>, int> async_depth;
    for (const auto &e : rec.events()) {
        EXPECT_GE(e.ts, 0.0) << e.name;
        switch (e.phase) {
          case 'X':
            EXPECT_GE(e.dur, 0.0) << e.name;
            EXPECT_GT(e.pid, 0u) << e.name;
            EXPECT_GT(e.tid, 0u) << e.name;
            break;
          case 'b':
            ASSERT_TRUE(e.has_id);
            ++async_depth[std::make_pair(e.id, e.name)];
            break;
          case 'e': {
            ASSERT_TRUE(e.has_id);
            // every end closes an open begin of the same (id, name)
            int &depth = async_depth[std::make_pair(e.id, e.name)];
            ASSERT_GT(depth, 0) << e.name;
            --depth;
            break;
          }
          case 'i':
          case 'C':
            break;
          default:
            FAIL() << "unknown phase " << e.phase;
        }
    }
    for (const auto &[key, depth] : async_depth)
        EXPECT_EQ(depth, 0) << "unclosed async span " << key.second;

    // Lifecycle phases nest inside the enclosing request span: a
    // request's phase spans start no earlier than its arrival.
    for (const auto &r : run.requests) {
        if (!r.finished())
            continue;
        EXPECT_GE(r.prefill_start_time, r.arrival_time);
        EXPECT_GE(r.finish_time, r.first_token_time);
    }
}

TEST(Trace, ChromeJsonRoundTripsThroughParser)
{
    auto cfg = small_cell();
    auto sys = harness::make_system(cfg);
    traced_run(*sys, cfg);
    const obs::TraceRecorder &rec = *sys->trace();

    auto doc = JsonParser(rec.chrome_json()).parse();
    ASSERT_EQ(doc.kind, JsonValue::Object);
    EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");

    const auto &events = doc.at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Array);

    std::size_t payload = 0, metadata = 0;
    for (const auto &e : events.items) {
        ASSERT_EQ(e.kind, JsonValue::Object);
        const std::string &ph = e.at("ph").str;
        ASSERT_FALSE(ph.empty());
        if (ph == "M") {
            ++metadata;
            continue;
        }
        ++payload;
        EXPECT_TRUE(e.has("name"));
        EXPECT_TRUE(e.has("cat"));
        EXPECT_GE(e.at("ts").num, 0.0);
        if (ph == "X") {
            EXPECT_GE(e.at("dur").num, 0.0);
        }
        if (ph == "i") {
            EXPECT_EQ(e.at("s").str, "t");
        }
    }
    // Every recorded event is exported exactly once; metadata only adds
    // process/thread naming on top.
    EXPECT_EQ(payload, rec.num_events());
    EXPECT_GT(metadata, 0u);

    // The decision journal's JSON export shares the recorder's string
    // escaper: control characters in a reason or a target still parse.
    obs::DecisionJournal j;
    obs::Decision d;
    d.reason = "line\nbreak";
    d.candidates.push_back(obs::DecisionOption{"tab\tbed", true, {}});
    d.chosen = d.candidates[0].target;
    j.record(std::move(d));
    auto jdoc = JsonParser(j.json()).parse();
    const auto &dec = jdoc.at("decisions").items.at(0);
    EXPECT_EQ(dec.at("reason").str, "line break");
    EXPECT_EQ(dec.at("candidates").items.at(0).at("target").str, "tab bed");
}

TEST(Trace, ByteIdenticalAcrossSweepThreadCounts)
{
    std::vector<harness::ExperimentConfig> cells{
        small_cell(harness::SystemKind::WindServe),
        small_cell(harness::SystemKind::DistServe)};
    for (auto &c : cells) {
        c.num_requests = 60;
        c.record_trace = true;
    }
    auto seq = harness::run_experiments(cells, 1);
    auto par = harness::run_experiments(cells, 4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_GT(seq[i].trace_events, 0u);
        EXPECT_EQ(seq[i].trace_events, par[i].trace_events);
        EXPECT_EQ(seq[i].trace_json, par[i].trace_json);
        EXPECT_EQ(seq[i].trace_request_csv, par[i].trace_request_csv);
    }
}

TEST(Trace, DisabledTracingIsFreeAndChangesNothing)
{
    auto cfg = small_cell();

    auto plain = harness::make_system(cfg);
    EXPECT_EQ(plain->trace(), nullptr);
    auto base =
        plain->run(harness::make_trace(cfg), cfg.scenario.slo, cfg.horizon);
    EXPECT_EQ(plain->trace(), nullptr); // run() never attaches one

    auto traced_sys = harness::make_system(cfg);
    auto traced = traced_run(*traced_sys, cfg);
    ASSERT_NE(traced_sys->trace(), nullptr);
    EXPECT_GT(traced_sys->trace()->num_events(), 0u);

    // Identical scheduling with and without the recorder attached.
    const auto &a = base.metrics, &b = traced.metrics;
    EXPECT_EQ(a.num_finished, b.num_finished);
    EXPECT_EQ(a.num_unfinished, b.num_unfinished);
    EXPECT_EQ(a.swap_out_events, b.swap_out_events);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.prefill_dispatches, b.prefill_dispatches);
    EXPECT_DOUBLE_EQ(a.ttft.mean(), b.ttft.mean());
    EXPECT_DOUBLE_EQ(a.tpot.p99(), b.tpot.p99());
    EXPECT_DOUBLE_EQ(a.slo_attainment, b.slo_attainment);
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

// RunOptions::tracing is the only attachment path (the deprecated
// enable_*() shims are gone): the recorder appears during run() and a
// second tracing run on the same system reuses it.
TEST(Trace, RequestCsvMatchesResultsSchema)
{
    auto cfg = small_cell();
    cfg.num_requests = 20;
    auto sys = harness::make_system(cfg);
    auto run = traced_run(*sys, cfg);
    auto csv = obs::TraceRecorder::request_csv(run.requests);
    EXPECT_EQ(csv.rfind("id,", 0), 0u); // header first
    // header + one line per request
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              run.requests.size() + 1);
}

TEST(Trace, CounterEventsCarryExplicitTimestamps)
{
    obs::TraceRecorder rec;
    rec.counter_at(1.5, "timeline", "queue_depth", 3.0);
    rec.counter_at(2.5, "timeline", "queue_depth", 5.0);
    ASSERT_EQ(rec.num_events(), 2u);
    EXPECT_EQ(rec.count(obs::Category::Counter), 2u);
    EXPECT_EQ(rec.events()[0].phase, 'C');
    EXPECT_DOUBLE_EQ(rec.events()[0].ts, 1.5);
    EXPECT_DOUBLE_EQ(rec.events()[1].ts, 2.5);

    auto doc = JsonParser(rec.chrome_json()).parse();
    const auto &events = doc.at("traceEvents").items;
    bool found = false;
    for (const auto &e : events)
        if (e.at("ph").str == "C" && e.at("ts").num == 1.5e6) {
            EXPECT_DOUBLE_EQ(e.at("args").at("value").num, 3.0);
            found = true;
        }
    EXPECT_TRUE(found);
}

TEST(Trace, LogLinesCarrySimulatedTime)
{
    using sim::Log;
    using sim::LogLevel;
    auto line = Log::format(LogLevel::Info, 1.25, "engine", "batch go");
    EXPECT_EQ(line, "[1.250000] [info] engine: batch go");
    auto bare = Log::format(LogLevel::Warn, sim::kNoLogTime, "x", "y");
    EXPECT_EQ(bare.rfind("[-] ", 0), 0u);
}

TEST(Trace, CollectorCountsUnfinishedRequests)
{
    workload::Request done;
    done.id = 1;
    done.prompt_tokens = 16;
    done.output_tokens = 4;
    done.state = workload::RequestState::Finished;
    done.arrival_time = 0.0;
    done.prefill_enqueue_time = 0.0;
    done.prefill_start_time = 0.1;
    done.first_token_time = 0.2;
    done.decode_enqueue_time = 0.2;
    done.decode_start_time = 0.3;
    done.finish_time = 1.0;
    done.generated = 4;

    workload::Request stuck;
    stuck.id = 2;
    stuck.prompt_tokens = 16;
    stuck.output_tokens = 4;
    stuck.state = workload::RequestState::WaitingPrefill;
    stuck.arrival_time = 0.5;

    auto m = metrics::Collector(metrics::SloSpec{}).collect({done, stuck});
    EXPECT_EQ(m.num_requests, 2u);
    EXPECT_EQ(m.num_finished, 1u);
    EXPECT_EQ(m.num_unfinished, 1u);
    // ...and the detailed report surfaces both the count and the
    // percentile table.
    auto report = metrics::detailed_report(m);
    EXPECT_NE(report.find("unfinished=1"), std::string::npos);
    EXPECT_NE(report.find("p90"), std::string::npos);
    EXPECT_NE(report.find("e2e"), std::string::npos);
}
