/**
 * @file
 * Unit tests of the benchmark's own arithmetic and parsers. Build and
 * run with
 *   cmake --build .bench_build --target triqbench_tests
 *   .bench_build/triqbench_tests
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "metrics.hh"
#include "trace.hh"

using namespace triqbench;

TEST(Percentile, NeedsTenSamplesBeyondTheRank)
{
    std::vector<double> xs;
    for (int i = 1; i <= 99; ++i)
        xs.push_back(i);
    // 99 samples: p90 is rank 90, with only 9 samples above it.
    EXPECT_FALSE(tailPercentile(xs, 0.90).has_value());
    xs.push_back(100);
    // 100 samples: rank 90 has exactly 10 above it.
    ASSERT_TRUE(tailPercentile(xs, 0.90).has_value());
    EXPECT_DOUBLE_EQ(*tailPercentile(xs, 0.90), 90.0);
    EXPECT_FALSE(tailPercentile(xs, 0.99).has_value());
}

TEST(Percentile, IgnoresInputOrder)
{
    std::vector<double> xs;
    for (int i = 1000; i >= 1; --i)
        xs.push_back(i);
    ASSERT_TRUE(tailPercentile(xs, 0.99).has_value());
    EXPECT_DOUBLE_EQ(*tailPercentile(xs, 0.99), 990.0);
    EXPECT_DOUBLE_EQ(median(xs), 500.5);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Percentile, NearestRankIsAlwaysASampleValue)
{
    // Two clusters of equal size: an interpolated median would fall in
    // the gap between them; the nearest rank stays in the lower one.
    std::vector<double> xs{12, 50, 12, 50, 12, 50};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.50), 12.0);
    EXPECT_DOUBLE_EQ(median(xs), 31.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.5), 7.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, PerInputMediansIgnoreOneSlowPass)
{
    // Three passes over two inputs; the second pass ran slow.
    std::vector<double> xs{1, 10, 5, 50, 2, 12};
    auto m = perInputMedians(xs, 2);
    ASSERT_EQ(m.size(), 2u);
    EXPECT_DOUBLE_EQ(m[0], 2.0);
    EXPECT_DOUBLE_EQ(m[1], 12.0);
    EXPECT_EQ(perInputMedians({4, 6}, 3).size(), 2u);
    EXPECT_TRUE(perInputMedians({}, 3).empty());
}

TEST(Percentile, WindowMedianClipsAtTheEnds)
{
    std::vector<double> xs{5, 1, 9, 3, 7};
    EXPECT_DOUBLE_EQ(windowMedian(xs, 2, 2), 5.0);
    EXPECT_DOUBLE_EQ(windowMedian(xs, 0, 1), 3.0); // {5, 1}
    EXPECT_DOUBLE_EQ(windowMedian(xs, 4, 1), 5.0); // {3, 7}
    EXPECT_DOUBLE_EQ(windowMedian(xs, 9, 1), 5.0); // clamped to the last
    EXPECT_DOUBLE_EQ(windowMedian({}, 0, 2), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    EXPECT_DOUBLE_EQ(selfTime(0, 10, {}), 10.0);
    EXPECT_DOUBLE_EQ(selfTime(0, 10, {{1, 3}, {5, 6}}), 7.0);
    // Overlapping children count once.
    EXPECT_DOUBLE_EQ(selfTime(0, 10, {{1, 4}, {2, 6}, {5, 7}}), 4.0);
    // Children sticking out of the parent are clipped.
    EXPECT_DOUBLE_EQ(selfTime(0, 10, {{-5, 2}, {9, 20}}), 7.0);
    EXPECT_DOUBLE_EQ(selfTime(0, 10, {{0, 10}}), 0.0);
}

TEST(SelfTime, TracerGroupsByLayer)
{
    Tracer t(true);
    int outer = t.begin("bench.op");
    int inner = t.begin("core.mapping");
    t.end(inner);
    t.end(outer);
    t.record("service.request", 0.0, 5.0, -1, 1, 1);
    auto rows = t.selfTimeByLayer();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].layer, "bench");
    EXPECT_EQ(rows[1].layer, "core");
    EXPECT_EQ(rows[2].layer, "service");
    EXPECT_DOUBLE_EQ(rows[2].selfMs, 0.005);
    EXPECT_NEAR(rows[0].selfMs + rows[1].selfMs, rows[0].totalMs, 1e-9);
    EXPECT_EQ(t.count("core.mapping"), 1);
    EXPECT_EQ(layerOf("core.gates_after.routing"), "core");

    Tracer off(false);
    EXPECT_EQ(off.begin("bench.op"), -1);
    off.record("service.request", 0, 1, -1, 1, 1);
    EXPECT_TRUE(off.records().empty());
}

TEST(Geomean, PositiveValuesOnly)
{
    EXPECT_NEAR(geomeanPositive({1.0, 4.0, 16.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomeanPositive({0.0, 2.0, 8.0, -1.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomeanPositive({}), 0.0);
    EXPECT_DOUBLE_EQ(geomeanPositive({0.0}), 0.0);
}

TEST(Expected, ParsesNamesAndBitstrings)
{
    auto e = parseExpected("# comment\n\nBV4 111\n  Or 011  # trailing\n");
    ASSERT_EQ(e.size(), 2u);
    EXPECT_EQ(e.at("BV4"), "111");
    EXPECT_EQ(e.at("Or"), "011");
    EXPECT_EQ(bitsToKey("011"), 0b110u);
    EXPECT_EQ(bitsToKey("1"), 1u);
}

TEST(Expected, RejectsMalformedLines)
{
    EXPECT_THROW(parseExpected("BV4\n"), std::runtime_error);
    EXPECT_THROW(parseExpected("BV4 1021\n"), std::runtime_error);
    EXPECT_THROW(parseExpected("BV4 11 extra\n"), std::runtime_error);
    EXPECT_THROW(parseExpected("BV4 11\nBV4 11\n"), std::runtime_error);
    EXPECT_THROW(parseExpected("W " + std::string(65, '1') + "\n"),
                 std::runtime_error);
    try {
        parseExpected("A 1\nB x\n");
        FAIL() << "malformed line accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(Digest, StableAndSensitive)
{
    Digest a, b, c;
    for (Digest *d : {&a, &b}) {
        d->add(std::string_view("BV4"));
        d->add(uint64_t{7});
        d->add(0.1);
    }
    EXPECT_EQ(a.hex(), b.hex());
    EXPECT_EQ(a.hex().size(), 16u);
    c.add(std::string_view("BV4"));
    c.add(uint64_t{7});
    c.add(std::nextafter(0.1, 1.0));
    EXPECT_NE(a.hex(), c.hex());
    // Field boundaries matter.
    Digest x, y;
    x.add(std::string_view("ab"));
    x.add(std::string_view("c"));
    y.add(std::string_view("a"));
    y.add(std::string_view("bc"));
    EXPECT_NE(x.value(), y.value());
    // The empty digest is the FNV-1a offset basis.
    EXPECT_EQ(Digest().hex(), "cbf29ce484222325");
}
