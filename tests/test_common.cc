/**
 * @file
 * Unit tests for the common subsystem: angles, RNG, matrices, stats,
 * env helpers, logging and table formatting (the thread pool is tested
 * with the fan-out in test_sched).
 */

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/matrix.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace triq
{
namespace
{

TEST(Angles, WrapAngle)
{
    EXPECT_NEAR(wrapAngle(0.0), 0.0, 1e-12);
    EXPECT_NEAR(wrapAngle(kPi), kPi, 1e-12);
    EXPECT_NEAR(wrapAngle(-kPi), kPi, 1e-12); // (-pi, pi] convention.
    EXPECT_NEAR(wrapAngle(3 * kPi), kPi, 1e-12);
    EXPECT_NEAR(wrapAngle(2 * kPi + 0.5), 0.5, 1e-12);
    EXPECT_NEAR(wrapAngle(-2 * kPi - 0.5), -0.5, 1e-12);
}

TEST(Angles, ZeroAndSame)
{
    EXPECT_TRUE(isZeroAngle(4 * kPi));
    EXPECT_FALSE(isZeroAngle(0.1));
    EXPECT_TRUE(sameAngle(0.25, 0.25 + 2 * kPi));
    EXPECT_FALSE(sameAngle(0.25, -0.25));
}

TEST(Rng, DeterministicAndSeedSensitive)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        differs = differs || a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, StringSeeds)
{
    Rng a("ibmq14/day1"), b("ibmq14/day1"), c("ibmq14/day2");
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        int k = rng.uniformInt(13);
        EXPECT_GE(k, 0);
        EXPECT_LT(k, 13);
    }
}

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    RunningStats st;
    for (int i = 0; i < 50000; ++i)
        st.push(rng.normal());
    EXPECT_NEAR(st.mean(), 0.0, 0.02);
    EXPECT_NEAR(st.stddev(), 1.0, 0.02);
}

TEST(Rng, LogNormalMedian)
{
    Rng rng(13);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i)
        xs.push_back(rng.logNormal(0.05, 0.5));
    // Median of the distribution equals the median parameter.
    EXPECT_NEAR(quantile(xs, 0.5), 0.05, 0.003);
    for (double x : xs)
        EXPECT_GT(x, 0.0);
}

TEST(Rng, ForkIndependentOfOrder)
{
    Rng base(99);
    Rng f1 = base.fork(1);
    Rng f2 = base.fork(2);
    Rng base2(99);
    Rng f2b = base2.fork(2);
    EXPECT_EQ(f2.next(), f2b.next());
    EXPECT_NE(f1.next(), f2.next());
}

TEST(Rng, BernoulliEdges)
{
    Rng rng(3);
    for (int i = 0; i < 10; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliThresholdIsTheUniformCompare)
{
    // Two copies of one stream, one drawing through the integer compare
    // and one through bernoulli, agree on every draw and end in the
    // same state.
    for (double p : {5e-324, 1e-300, 1e-12, 0x1p-53, 0.1, 0.5, 1 - 0x1p-53}) {
        SCOPED_TRACE(p);
        const uint64_t threshold = Rng::bernoulliThreshold(p);
        // The threshold is the first 53-bit draw that is not below p.
        EXPECT_LT(static_cast<double>(threshold - 1) * 0x1p-53, p);
        EXPECT_GE(static_cast<double>(threshold) * 0x1p-53, p);
        Rng a(2019), b(2019);
        int mismatches = 0;
        for (int i = 0; i < 100000; ++i)
            mismatches += a.uniformBelow(threshold) != b.bernoulli(p);
        EXPECT_EQ(mismatches, 0);
        EXPECT_EQ(a.next(), b.next());
    }

    // Out of (0, 1) bernoulli draws nothing, and the threshold is the
    // compare's constant answer.
    const double inf = std::numeric_limits<double>::infinity();
    for (double p : {0.0, -0.0, 1.0, 1.5, inf, -inf}) {
        SCOPED_TRACE(p);
        Rng a(7), b(7);
        EXPECT_EQ(a.bernoulli(p), p >= 1.0);
        EXPECT_EQ(a.next(), b.next());
        EXPECT_EQ(Rng::bernoulliThreshold(p),
                  p >= 1.0 ? uint64_t{1} << 53 : 0u);
    }

    // A NaN draws once and never fires, like its threshold of 0.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(Rng::bernoulliThreshold(nan), 0u);
    Rng a(7), b(7);
    EXPECT_FALSE(a.bernoulli(nan));
    b.next();
    EXPECT_EQ(a.next(), b.next());
}

TEST(Matrix, IdentityAndMultiply)
{
    Matrix i2 = Matrix::identity(2);
    Matrix x{{0, 1}, {1, 0}};
    EXPECT_TRUE((x * i2).approxEqual(x));
    EXPECT_TRUE((x * x).approxEqual(i2));
}

TEST(Matrix, KronDimensions)
{
    Matrix a = Matrix::identity(2);
    Matrix b(3, 3);
    Matrix k = a.kron(b);
    EXPECT_EQ(k.rows(), 6);
    EXPECT_EQ(k.cols(), 6);
}

TEST(Matrix, KronValues)
{
    Matrix x{{0, 1}, {1, 0}};
    Matrix z{{1, 0}, {0, -1}};
    Matrix k = x.kron(z);
    // (X kron Z)[0][2] = x[0][1]*z[0][0] = 1.
    EXPECT_EQ(k(0, 2), Cplx(1, 0));
    EXPECT_EQ(k(1, 3), Cplx(-1, 0));
    EXPECT_EQ(k(2, 0), Cplx(1, 0));
}

TEST(Matrix, DaggerAndUnitary)
{
    Cplx i1(0, 1);
    double s = 1 / std::sqrt(2.0);
    Matrix h{{s, s}, {s, -s}};
    EXPECT_TRUE(h.isUnitary());
    Matrix y{{0, -i1}, {i1, 0}};
    EXPECT_TRUE(y.isUnitary());
    EXPECT_TRUE(y.dagger().approxEqual(y)); // Y is Hermitian.
    Matrix not_unitary{{1, 1}, {0, 1}};
    EXPECT_FALSE(not_unitary.isUnitary());
}

TEST(Matrix, EqualUpToPhase)
{
    Matrix x{{0, 1}, {1, 0}};
    Cplx phase = std::exp(Cplx(0, 0.73));
    EXPECT_TRUE((x * phase).equalUpToPhase(x));
    EXPECT_FALSE((x * Cplx(2, 0)).equalUpToPhase(x));
    Matrix z{{1, 0}, {0, -1}};
    EXPECT_FALSE(x.equalUpToPhase(z));
}

TEST(Matrix, ShapeErrorsPanic)
{
    Matrix a(2, 3), b(2, 3);
    EXPECT_THROW(a * b, PanicError);
    EXPECT_THROW(a.at(2, 0), PanicError);
}

TEST(Stats, Basics)
{
    std::vector<double> xs{1.0, 2.0, 4.0};
    EXPECT_NEAR(mean(xs), 7.0 / 3, 1e-12);
    EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
    EXPECT_EQ(minOf(xs), 1.0);
    EXPECT_EQ(maxOf(xs), 4.0);
    EXPECT_NEAR(quantile(xs, 0.5), 2.0, 1e-12);
    EXPECT_NEAR(quantile(xs, 0.0), 1.0, 1e-12);
    EXPECT_NEAR(quantile(xs, 1.0), 4.0, 1e-12);
}

TEST(Stats, GeomeanRejectsNonPositive)
{
    EXPECT_THROW(geomean({1.0, 0.0}), FatalError);
    EXPECT_THROW(mean({}), PanicError);
}

TEST(Stats, RunningMatchesBatch)
{
    Rng rng(5);
    std::vector<double> xs;
    RunningStats st;
    for (int i = 0; i < 1000; ++i) {
        double x = rng.uniform(-3, 7);
        xs.push_back(x);
        st.push(x);
    }
    EXPECT_NEAR(st.mean(), mean(xs), 1e-9);
    EXPECT_NEAR(st.stddev(), stddev(xs), 1e-9);
    EXPECT_EQ(st.min(), minOf(xs));
    EXPECT_EQ(st.max(), maxOf(xs));
    EXPECT_EQ(st.count(), 1000);
}

TEST(Table, AlignmentAndCsv)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_NE(csv.str().find("name,value"), std::string::npos);
    EXPECT_NE(csv.str().find("b,22"), std::string::npos);
}

TEST(Table, CsvQuoting)
{
    Table t;
    t.addRow({"a,b", "say \"hi\""});
    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "\"a,b\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, RowWidthMismatchPanics)
{
    Table t;
    t.setHeader({"one", "two"});
    EXPECT_THROW(t.addRow({"only"}), PanicError);
}

TEST(Formatting, Helpers)
{
    EXPECT_EQ(fmtF(1.23456, 2), "1.23");
    EXPECT_EQ(fmtI(-42), "-42");
    EXPECT_EQ(fmtFactor(2.5), "2.50x");
    EXPECT_EQ(fmtFactor(std::nan("")), "-");
}

TEST(Rng, StreamIsPureFunctionOfSeedAndIndex)
{
    Rng a = Rng::stream(7, 0), b = Rng::stream(7, 0);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.next(), b.next());
    // Different indices (and different seeds) give unrelated streams.
    Rng c = Rng::stream(7, 1), d = Rng::stream(8, 0);
    Rng a2 = Rng::stream(7, 0);
    bool differs_idx = false, differs_seed = false;
    for (int i = 0; i < 50; ++i) {
        uint64_t r = a2.next();
        differs_idx = differs_idx || c.next() != r;
        differs_seed = differs_seed || d.next() != r;
    }
    EXPECT_TRUE(differs_idx);
    EXPECT_TRUE(differs_seed);
}

TEST(Rng, StreamsAreStatisticallyIndependent)
{
    // Adjacent chunk streams must not be shifted copies of each other:
    // their uniforms should be uncorrelated.
    Rng a = Rng::stream(99, 4), b = Rng::stream(99, 5);
    double sum_ab = 0.0, sum_a = 0.0, sum_b = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double x = a.uniform(), y = b.uniform();
        sum_ab += x * y;
        sum_a += x;
        sum_b += y;
    }
    double cov = sum_ab / n - (sum_a / n) * (sum_b / n);
    EXPECT_NEAR(cov, 0.0, 0.01);
}

TEST(Env, EnvIntParsesAndFallsBack)
{
    unsetenv("TRIQ_TEST_ENVINT");
    EXPECT_EQ(envInt("TRIQ_TEST_ENVINT", 42), 42);
    setenv("TRIQ_TEST_ENVINT", "17", 1);
    EXPECT_EQ(envInt("TRIQ_TEST_ENVINT", 42), 17);
    setenv("TRIQ_TEST_ENVINT", "bogus", 1);
    EXPECT_EQ(envInt("TRIQ_TEST_ENVINT", 42), 42);
    setenv("TRIQ_TEST_ENVINT", "17abc", 1);
    EXPECT_EQ(envInt("TRIQ_TEST_ENVINT", 42), 42);
    setenv("TRIQ_TEST_ENVINT", "0", 1);
    EXPECT_EQ(envInt("TRIQ_TEST_ENVINT", 42), 42);     // below min 1
    EXPECT_EQ(envInt("TRIQ_TEST_ENVINT", 42, 0), 0);   // min 0 accepts
    setenv("TRIQ_TEST_ENVINT", "-3", 1);
    EXPECT_EQ(envInt("TRIQ_TEST_ENVINT", 42, 0), 42);
    // Out of range: past the explicit 1e9 cap and past LONG_MAX (the
    // strtol ERANGE path) both fall back, never truncate or wrap.
    setenv("TRIQ_TEST_ENVINT", "1000000001", 1);
    EXPECT_EQ(envInt("TRIQ_TEST_ENVINT", 42), 42);
    setenv("TRIQ_TEST_ENVINT", "99999999999999999999999", 1);
    EXPECT_EQ(envInt("TRIQ_TEST_ENVINT", 42), 42);
    // An explicit max_value is inclusive.
    setenv("TRIQ_TEST_ENVINT", "256", 1);
    EXPECT_EQ(envInt("TRIQ_TEST_ENVINT", 42, 0, 256), 256);
    setenv("TRIQ_TEST_ENVINT", "257", 1);
    EXPECT_EQ(envInt("TRIQ_TEST_ENVINT", 42, 0, 256), 42);
    unsetenv("TRIQ_TEST_ENVINT");
}

TEST(Env, EnvIntWarnsOnMalformedValue)
{
    // The warn-never-silent contract: a malformed knob (TRIQ_TRIALS=10x)
    // must produce a visible diagnostic, not just quietly fall back.
    setenv("TRIQ_TEST_ENVINT", "10x", 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(envInt("TRIQ_TEST_ENVINT", 42), 42);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("TRIQ_TEST_ENVINT"), std::string::npos) << err;
    EXPECT_NE(err.find("10x"), std::string::npos) << err;

    // A well-formed value stays silent.
    setenv("TRIQ_TEST_ENVINT", "10", 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(envInt("TRIQ_TEST_ENVINT", 42), 10);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    unsetenv("TRIQ_TEST_ENVINT");
}

TEST(Logging, FatalAndPanicOnlyThrow)
{
    // The code that catches an error reports it; the throw site
    // writes nothing.
    testing::internal::CaptureStderr();
    try {
        fatal("line ", 1, ": index ", 3, " out of range");
        ADD_FAILURE() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "line 1: index 3 out of range");
    }
    EXPECT_THROW(panic("invariant ", "broken"), PanicError);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Env, ParseNumberRequiresTheWholeString)
{
    long i = 7;
    EXPECT_TRUE(parseNumber("42", i));
    EXPECT_EQ(i, 42);
    EXPECT_TRUE(parseNumber("-5", i));
    EXPECT_EQ(i, -5);
    for (const char *bad :
         {"", "abc", "3x", "1e6", " 4 ", "99999999999999999999999"}) {
        i = 7;
        EXPECT_FALSE(parseNumber(bad, i)) << "value: " << bad;
        EXPECT_EQ(i, 7) << "value: " << bad;
    }
    double d = 0.5;
    EXPECT_TRUE(parseNumber("1e6", d));
    EXPECT_EQ(d, 1e6);
    EXPECT_TRUE(parseNumber("-0.25", d));
    EXPECT_EQ(d, -0.25);
    for (const char *bad : {"", "abc", "0.05x", "nan", "inf", "1e999"}) {
        d = 0.5;
        EXPECT_FALSE(parseNumber(bad, d)) << "value: " << bad;
        EXPECT_EQ(d, 0.5) << "value: " << bad;
    }
}

TEST(Env, FlagValueRejectsMalformedAndOutOfRangeValues)
{
    EXPECT_EQ(flagValue("--day", "3", 0), 3);
    EXPECT_EQ(flagValue("--node-budget", "1000000", 1L), 1000000L);
    EXPECT_EQ(flagValue("--sim-threads", "256", 0, 256), 256);
    EXPECT_DOUBLE_EQ(flagValue("--budget-ms", "2.5", 0.0), 2.5);
    EXPECT_DOUBLE_EQ(flagValue<double>("--drift", "-1"), -1.0);
    for (const char *bad : {"1e6", "abc", "-5", ""})
        EXPECT_THROW(flagValue("--node-budget", bad, 1L), FatalError)
            << "value: " << bad;
    EXPECT_THROW(flagValue("--sim-threads", "257", 0, 256), FatalError);
    EXPECT_THROW(flagValue("--sim-threads", "-1", 0, 256), FatalError);
    EXPECT_THROW(flagValue("--budget-ms", "abc", 0.0), FatalError);
    // Past INT_MAX an int flag is rejected, never truncated.
    EXPECT_THROW(flagValue("--day", "4294967296", 0), FatalError);
    // The error names the flag and the rejected text.
    try {
        flagValue("--day", "3x", 0);
        ADD_FAILURE() << "--day 3x was accepted";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("--day"), std::string::npos) << msg;
        EXPECT_NE(msg.find("'3x'"), std::string::npos) << msg;
    }
}

} // namespace
} // namespace triq
