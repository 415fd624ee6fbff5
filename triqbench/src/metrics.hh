/**
 * @file
 * The benchmark's own arithmetic: the percentile rule, medians,
 * geometric means, span self time, the output digest and the parser of
 * the hand-written expected-answers file. Kept free of TriQ types so it
 * is unit-tested on its own (tests/test_harness.cc).
 */

#ifndef TRIQBENCH_METRICS_HH
#define TRIQBENCH_METRICS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace triqbench
{

/** Median of a sample (mean of the middle two when even); 0 if empty. */
double median(std::vector<double> xs);

/**
 * Each input's median over passes, where `xs` holds whole passes over
 * `inputs` inputs (sample k belongs to input k % inputs).
 */
std::vector<double> perInputMedians(const std::vector<double> &xs,
                                    size_t inputs);

/**
 * Median of xs[i - half .. i + half], clipped to the sample (an `i`
 * past the end counts as the last index); 0 if empty.
 */
double windowMedian(const std::vector<double> &xs, size_t i, size_t half);

/**
 * Nearest-rank percentile `p` (in (0, 1]) of a sample: always one of
 * its values, so a sample made of a few clusters (one per input kind)
 * never reports a value between two of them. 0 when empty.
 */
double percentile(std::vector<double> xs, double p);

/**
 * Nearest-rank percentile `p` (in (0, 1)) of a sample, reported only
 * when at least `min_beyond` samples lie above its rank — a tail that
 * rests on fewer samples is noise, not a measurement.
 */
std::optional<double> tailPercentile(std::vector<double> xs, double p,
                                     int min_beyond = 10);

/** Geometric mean of the positive values; 0 when there are none. */
double geomeanPositive(const std::vector<double> &xs);

/** A closed time interval, in any unit. */
struct Interval
{
    double start = 0.0;
    double end = 0.0;
};

/**
 * Self time of a span: its duration minus the part of [start, end]
 * that the union of its children covers. Children may overlap each
 * other (concurrent requests) and may stick out of the parent; both
 * are handled.
 */
double selfTime(double start, double end, std::vector<Interval> children);

/** FNV-1a digest of a canonical stream of output values. */
class Digest
{
  public:
    void add(std::string_view text);
    void add(uint64_t v);
    void add(int v) { add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
    /** Doubles are digested through their round-trip %.17g text. */
    void add(double v);

    uint64_t value() const { return hash_; }

    /** 16 lowercase hex digits. */
    std::string hex() const;

  private:
    uint64_t hash_ = 14695981039346656037ull;
};

/**
 * Parse the expected-answers file: `name bitstring` per line, blank
 * lines and `#` comments ignored. Bitstrings hold only 0/1, at most 64
 * characters. @throws std::runtime_error naming the line on malformed
 * input or a duplicate name.
 */
std::map<std::string, std::string> parseExpected(const std::string &text);

/** Bitstring (character k = bit k) to an outcome key. */
uint64_t bitsToKey(const std::string &bits);

} // namespace triqbench

#endif // TRIQBENCH_METRICS_HH
