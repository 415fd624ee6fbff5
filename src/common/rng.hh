/**
 * @file
 * Deterministic pseudo-random number generation for calibration synthesis
 * and noisy-trajectory simulation.
 *
 * We use xoshiro256** (public domain, Blackman & Vigna) rather than
 * std::mt19937 so that streams are cheap to fork: every (device, day) pair
 * and every simulation trial can own an independent, reproducible stream.
 */

#ifndef TRIQ_COMMON_RNG_HH
#define TRIQ_COMMON_RNG_HH

#include <cmath>
#include <cstdint>
#include <string>

namespace triq
{

/**
 * A small, fast, seedable random number generator (xoshiro256**).
 *
 * All distributions needed by TriQ (uniform, normal, log-normal,
 * Bernoulli, bounded integers) are provided as member functions so
 * call sites never depend on <random> distribution quirks, keeping
 * results identical across standard libraries.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Construct from a string seed, e.g. "ibmq14/day3". */
    explicit Rng(const std::string &seed);

    /** Next raw 64 random bits. */
    uint64_t next()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        // 53 random mantissa bits -> [0, 1).
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /**
     * Uniform integer in [0, n), by rejection so there is no modulo
     * bias. @pre n > 0. Inline so a constant n (drawPauliCode's 3 and
     * 15) compiles to multiplies rather than 64-bit divisions.
     */
    int uniformInt(int n)
    {
        if (n <= 0)
            nonPositiveBound(n);
        const uint64_t un = static_cast<uint64_t>(n);
        const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
        uint64_t r;
        do {
            r = next();
        } while (r >= limit);
        return static_cast<int>(r % un);
    }

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * The threshold that makes uniformBelow(bernoulliThreshold(p)) the
     * exact integer form of `uniform() < p`, for every p: the same one
     * draw and the same answer. uniform() is the 53-bit integer
     * next() >> 11 times 2^-53, and an integer is below a real r exactly
     * when it is below ceil(r), so for 0 < p < 1 the threshold is
     * ceil(p * 2^53), in [1, 2^53]. A NaN or p <= 0 gives 0 (never
     * below) and p >= 1 gives 2^53 (always below), so no NaN and nothing
     * past 2^53 is cast to an integer.
     *
     * bernoulli(p) differs only in drawing nothing when p <= 0 or
     * p >= 1; a caller that precomputes thresholds skips those draws
     * itself to keep bernoulli's stream.
     */
    static uint64_t bernoulliThreshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return uint64_t{1} << 53;
        return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /** One draw against a bernoulliThreshold: uniform() < p, in integers. */
    bool uniformBelow(uint64_t threshold)
    {
        return (next() >> 11) < threshold;
    }

    /** Standard normal deviate (Box-Muller, cached pair). */
    double normal();

    /** Normal deviate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Log-normal deviate parameterized by the *median* m and the
     * multiplicative spread sigma (standard deviation of ln X).
     * Median-parameterization keeps calibration means interpretable.
     */
    double logNormal(double median, double sigma);

    /** Fork an independent stream keyed by an integer tag. */
    Rng fork(uint64_t tag) const;

    /**
     * Deterministic independent stream keyed by (seed, stream index).
     *
     * Unlike fork(), this is a pure function of its arguments: stream
     * (s, i) is the same Rng no matter where or when it is created,
     * which is what makes chunk-sharded trajectory simulation
     * bit-identical across thread counts — every chunk owns stream
     * (seed, chunk_index) regardless of which worker runs it.
     */
    static Rng stream(uint64_t seed, uint64_t stream_index);

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    /** uniformInt's precondition failure, kept out of line. */
    [[noreturn]] static void nonPositiveBound(int n);

    uint64_t s_[4];
    double cachedNormal_;
    bool hasCachedNormal_;
};

} // namespace triq

#endif // TRIQ_COMMON_RNG_HH
