/**
 * @file
 * Unit tests for trace CSV import/export.
 */
#include <gtest/gtest.h>

#include <sstream>

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

TEST(TraceIo, ToleratesBlanksAroundFields)
{
    std::istringstream in("0.5, 100 ,10\r\n1.0,\t20,2\r\n");
    auto trace = wl::parse_trace_csv(in);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].prompt_tokens, 100u);
    EXPECT_EQ(trace[1].output_tokens, 2u);
}
