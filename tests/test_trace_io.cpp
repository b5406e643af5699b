/**
 * @file
 * Unit tests for trace CSV import/export.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "simcore/rng.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

namespace wl = windserve::workload;

TEST(TraceIo, ParsesPlainRows)
{
    std::istringstream in("0.5,100,10\n1.25,200,20\n");
    auto trace = wl::parse_trace_csv(in);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_DOUBLE_EQ(trace[0].arrival_time, 0.5);
    EXPECT_EQ(trace[0].prompt_tokens, 100u);
    EXPECT_EQ(trace[1].output_tokens, 20u);
    EXPECT_EQ(trace[0].id, 0u);
    EXPECT_EQ(trace[1].id, 1u);
}

TEST(TraceIo, SkipsHeaderAndComments)
{
    std::istringstream in(
        "arrival_time,prompt_tokens,output_tokens\n"
        "# synthetic trace\n"
        "\n"
        "0.1,64,8\n");
    auto trace = wl::parse_trace_csv(in);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].prompt_tokens, 64u);
}

TEST(TraceIo, RejectsMalformedRows)
{
    std::istringstream a("0.1,64\n");
    EXPECT_THROW(wl::parse_trace_csv(a), std::runtime_error);
    std::istringstream b("0.1,sixty,8\n");
    EXPECT_THROW(wl::parse_trace_csv(b), std::runtime_error);
}

TEST(TraceIo, RejectsDecreasingArrivals)
{
    std::istringstream in("1.0,10,1\n0.5,10,1\n");
    EXPECT_THROW(wl::parse_trace_csv(in), std::runtime_error);
}

TEST(TraceIo, RejectsZeroLengths)
{
    std::istringstream in("0.5,0,1\n");
    EXPECT_THROW(wl::parse_trace_csv(in), std::runtime_error);
}

TEST(TraceIo, RoundTripsGeneratedTrace)
{
    wl::TraceConfig tc;
    tc.num_requests = 200;
    tc.arrival.rate = 4.0;
    tc.seed = 9;
    auto original = wl::TraceBuilder(tc).build();

    std::ostringstream out;
    wl::write_trace_csv(out, original);
    std::istringstream in(out.str());
    auto reloaded = wl::parse_trace_csv(in);

    ASSERT_EQ(reloaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(reloaded[i].prompt_tokens, original[i].prompt_tokens);
        EXPECT_EQ(reloaded[i].output_tokens, original[i].output_tokens);
        EXPECT_NEAR(reloaded[i].arrival_time, original[i].arrival_time,
                    1e-4);
    }
}

TEST(TraceIo, ResultsCsvHasAllColumns)
{
    wl::Request r;
    r.id = 7;
    r.prompt_tokens = 100;
    r.output_tokens = 10;
    r.arrival_time = 1.0;
    r.first_token_time = 1.5;
    r.finish_time = 2.0;
    r.state = wl::RequestState::Finished;
    r.swap_outs = 2;
    r.prefill_dispatched = true;
    std::ostringstream out;
    wl::write_results_csv(out, {r});
    auto text = out.str();
    EXPECT_NE(text.find("id,arrival"), std::string::npos);
    EXPECT_NE(text.find("finished"), std::string::npos);
    // One header + one row.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(TraceIo, FileRoundTrip)
{
    wl::TraceConfig tc;
    tc.num_requests = 50;
    auto trace = wl::TraceBuilder(tc).build();
    std::string path = "/tmp/ws_trace_io_test.csv";
    wl::save_trace_csv(path, trace);
    auto reloaded = wl::load_trace_csv(path);
    EXPECT_EQ(reloaded.size(), trace.size());
}

TEST(TraceIo, MissingFileThrows)
{
    EXPECT_THROW(wl::load_trace_csv("/nonexistent/nope.csv"),
                 std::runtime_error);
}

TEST(TraceIo, RejectsNegativeTokenCount)
{
    // std::stoul("-5") wraps to a huge positive count, and a negated
    // 2^64 - 1 wraps all the way round to 1.
    std::istringstream in("0.5,-5,10\n");
    EXPECT_THROW(wl::parse_trace_csv(in), std::runtime_error);
    std::istringstream wrap("0.5,-18446744073709551615,10\n");
    EXPECT_THROW(wl::parse_trace_csv(wrap), std::runtime_error);
}

TEST(TraceIo, RejectsTrailingGarbage)
{
    std::istringstream count("0.5,12abc,10\n");
    EXPECT_THROW(wl::parse_trace_csv(count), std::runtime_error);
    std::istringstream arrival("0.5x,12,10\n");
    EXPECT_THROW(wl::parse_trace_csv(arrival), std::runtime_error);
}

TEST(TraceIo, RejectsNanArrival)
{
    // nan < last is false, so a NaN slipped past the ordering check.
    std::istringstream first("nan,10,10\n");
    EXPECT_THROW(wl::parse_trace_csv(first), std::runtime_error);
    std::istringstream later("0.5,10,10\nnan,10,10\n");
    EXPECT_THROW(wl::parse_trace_csv(later), std::runtime_error);
}

TEST(TraceIo, RejectsInfiniteArrival)
{
    std::istringstream in("0.5,10,10\ninf,10,10\n");
    EXPECT_THROW(wl::parse_trace_csv(in), std::runtime_error);
}

TEST(TraceIo, RejectsOverflowingCount)
{
    std::istringstream in("0.5,99999999999999999999999,10\n");
    EXPECT_THROW(wl::parse_trace_csv(in), std::runtime_error);
}

TEST(TraceIo, ErrorNamesTheLine)
{
    std::istringstream in("arrival_time,prompt_tokens,output_tokens\n"
                          "0.5,10,10\n"
                          "0.7,-1,10\n");
    try {
        wl::parse_trace_csv(in);
        FAIL() << "expected a parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
            << e.what();
    }
}

TEST(TraceIo, ErrorQuotingANulByteStillNamesTheLine)
{
    // Found by TraceIoFuzz: the quoted field used to carry the raw NUL,
    // which cut e.what() short before the line number.
    std::istringstream in(std::string("0.5,10,10\n0.\0" "7,10,10\n", 21));
    try {
        wl::parse_trace_csv(in);
        FAIL() << "expected a parse error";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("\\x00"), std::string::npos) << what;
    }
}

TEST(TraceIo, ToleratesBlanksAroundFields)
{
    std::istringstream in("0.5, 100 ,10\r\n1.0,\t20,2\r\n");
    auto trace = wl::parse_trace_csv(in);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].prompt_tokens, 100u);
    EXPECT_EQ(trace[1].output_tokens, 2u);
}

namespace {

/** Mutate one row of @p rows (CSV text, one row per entry) the way a
 *  damaged or hand-edited trace would be, and return the joined text. */
std::string
mutate(std::vector<std::string> rows, windserve::sim::Rng &rng)
{
    auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    std::string &row = rows[pick(rows.size())];
    // Field start offsets: the row begins a field, so does each ','+1.
    std::vector<std::size_t> fields{0};
    for (std::size_t i = 0; i < row.size(); ++i)
        if (row[i] == ',')
            fields.push_back(i + 1);
    static const char *const kExponents[] = {"e308", "e-400", "e99999",
                                             "E+5", "e", "e-"};
    switch (rng.uniform_int(0, 5)) {
      case 0: // truncate the row mid-way
        row.resize(pick(row.size() + 1));
        break;
      case 1: // overwrite a few bytes with arbitrary ones
        for (int k = rng.uniform_int(1, 3); k > 0 && !row.empty(); --k)
            row[pick(row.size())] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 2: // sign edit at the start of a field
        row.insert(fields[pick(fields.size())], rng.uniform() < 0.5 ? "-"
                                                                    : "+");
        break;
      case 3: { // exponent edit at the end of a field
        std::size_t f = pick(fields.size());
        std::size_t end = f + 1 < fields.size() ? fields[f + 1] - 1
                                                : row.size();
        row.insert(end, kExponents[pick(std::size(kExponents))]);
        break;
      }
      case 4: // duplicated delimiter
        if (fields.size() > 1)
            row.insert(fields[1 + pick(fields.size() - 1)] - 1, ",");
        break;
      default: // truncate the whole text inside this row
        row.resize(pick(row.size() + 1));
        rows.resize(static_cast<std::size_t>(&row - rows.data()) + 1);
        break;
    }
    std::string text;
    for (const auto &r : rows)
        text += r + "\n";
    return text;
}

} // namespace

/** Property: a mutated valid trace either parses into a well-formed
 *  trace or throws an error naming a line of the input — never a crash,
 *  a hang or a silently malformed request. */
TEST(TraceIoFuzz, MutatedRowsParseCleanlyOrNameTheLine)
{
    windserve::sim::Rng rng(2024);
    const std::vector<std::string> valid = {
        "arrival_time,prompt_tokens,output_tokens",
        "# tokenized offline",
        "0.125,692,87",
        "0.5,12,1",
        "0.5,4096,512",
        "1.75,300,20",
        "2e1,64,8",
        "31.0,1,1",
    };
    int accepted = 0, rejected = 0;
    for (int iter = 0; iter < 3000; ++iter) {
        std::string text = mutate(valid, rng);
        std::size_t lines = static_cast<std::size_t>(
            std::count(text.begin(), text.end(), '\n'));
        std::istringstream in(text);
        try {
            auto trace = wl::parse_trace_csv(in);
            ++accepted;
            double last = 0.0;
            for (std::size_t i = 0; i < trace.size(); ++i) {
                const auto &r = trace[i];
                ASSERT_EQ(r.id, i) << text;
                ASSERT_TRUE(std::isfinite(r.arrival_time)) << text;
                ASSERT_GE(r.arrival_time, last) << text;
                ASSERT_GE(r.prompt_tokens, 1u) << text;
                ASSERT_GE(r.output_tokens, 1u) << text;
                last = r.arrival_time;
            }
        } catch (const std::runtime_error &e) {
            ++rejected;
            std::string what = e.what();
            auto at = what.rfind("line ");
            ASSERT_NE(at, std::string::npos) << what;
            std::size_t line = std::stoul(what.substr(at + 5));
            ASSERT_GE(line, 1u) << what;
            ASSERT_LE(line, lines) << what << "\n" << text;
        }
    }
    // Both outcomes are exercised: many mutations stay valid (a cut
    // header, a dropped trailing row, a byte inside a comment).
    EXPECT_GT(accepted, 100);
    EXPECT_GT(rejected, 100);
}
