/**
 * @file
 * Unit tests for Sample statistics.
 */
#include <gtest/gtest.h>

#include <stdexcept>

#include "simcore/stats.hpp"

namespace ws = windserve::sim;

TEST(Sample, EmptyPercentileIsZero)
{
    ws::Sample s;
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 0.0);
}

TEST(Sample, SingleValue)
{
    ws::Sample s;
    s.add(7.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(s.percentile(50.0), 7.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 7.0);
}

TEST(Sample, PercentileInterpolates)
{
    ws::Sample s;
    for (double x : {10.0, 20.0, 30.0, 40.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 40.0);
    EXPECT_DOUBLE_EQ(s.median(), 25.0);
    // numpy.percentile(xs, 90) == 37.0 for this input
    EXPECT_DOUBLE_EQ(s.p90(), 37.0);
}

TEST(Sample, PercentileOfUniformRamp)
{
    ws::Sample s;
    for (int i = 0; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.percentile(25.0), 25.0);
    EXPECT_DOUBLE_EQ(s.percentile(99.0), 99.0);
}

TEST(Sample, UnsortedInsertOrderIrrelevant)
{
    ws::Sample a, b;
    for (double x : {5.0, 1.0, 3.0})
        a.add(x);
    for (double x : {1.0, 3.0, 5.0})
        b.add(x);
    EXPECT_DOUBLE_EQ(a.median(), b.median());
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(Sample, RejectsBadPercentile)
{
    ws::Sample s;
    s.add(1.0);
    s.add(2.0);
    EXPECT_THROW(s.percentile(-1.0), std::invalid_argument);
    EXPECT_THROW(s.percentile(101.0), std::invalid_argument);
}

TEST(Sample, FractionBelow)
{
    ws::Sample s;
    for (int i = 1; i <= 10; ++i)
        s.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(s.fraction_below(5.0), 0.5);  // 1..5 inclusive
    EXPECT_DOUBLE_EQ(s.fraction_below(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.fraction_below(10.0), 1.0);
    EXPECT_DOUBLE_EQ(s.fraction_below(4.5), 0.4);
}

TEST(Sample, MergeConcatenates)
{
    ws::Sample a, b;
    a.add(1.0);
    b.add(3.0);
    b.add(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.median(), 3.0);
}

TEST(Sample, AddAfterQueryStillCorrect)
{
    ws::Sample s;
    s.add(2.0);
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.median(), 1.5);
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.median(), 2.0);
}
