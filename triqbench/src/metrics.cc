#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace triqbench
{

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::vector<double>
perInputMedians(const std::vector<double> &xs, size_t inputs)
{
    std::vector<double> out;
    for (size_t i = 0; i < inputs && i < xs.size(); ++i) {
        std::vector<double> samples;
        for (size_t k = i; k < xs.size(); k += inputs)
            samples.push_back(xs[k]);
        out.push_back(median(std::move(samples)));
    }
    return out;
}

double
windowMedian(const std::vector<double> &xs, size_t i, size_t half)
{
    if (xs.empty())
        return 0.0;
    i = std::min(i, xs.size() - 1);
    size_t lo = i > half ? i - half : 0;
    size_t hi = std::min(xs.size(), i + half + 1);
    return median(std::vector<double>(xs.begin() + static_cast<long>(lo),
                                      xs.begin() + static_cast<long>(hi)));
}

namespace
{

/** 1-based nearest rank of percentile p in a sample of n: ceil(p * n). */
size_t
nearestRank(size_t n, double p)
{
    size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
    return std::clamp<size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    return xs[nearestRank(xs.size(), p) - 1];
}

std::optional<double>
tailPercentile(std::vector<double> xs, double p, int min_beyond)
{
    if (xs.empty() || p <= 0.0 || p >= 1.0)
        return std::nullopt;
    size_t rank = nearestRank(xs.size(), p);
    if (xs.size() - rank < static_cast<size_t>(min_beyond))
        return std::nullopt;
    return percentile(std::move(xs), p);
}

double
geomeanPositive(const std::vector<double> &xs)
{
    double log_sum = 0.0;
    int n = 0;
    for (double x : xs) {
        if (x > 0.0) {
            log_sum += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

double
selfTime(double start, double end, std::vector<Interval> children)
{
    double covered = 0.0;
    std::sort(children.begin(), children.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (Interval c : children) {
        c.start = std::max(c.start, start);
        c.end = std::min(c.end, end);
        if (c.end <= c.start)
            continue;
        if (open && c.start <= run_hi) {
            run_hi = std::max(run_hi, c.end);
            continue;
        }
        if (open)
            covered += run_hi - run_lo;
        run_lo = c.start;
        run_hi = c.end;
        open = true;
    }
    if (open)
        covered += run_hi - run_lo;
    return (end - start) - covered;
}

void
Digest::add(std::string_view text)
{
    for (unsigned char c : text) {
        hash_ ^= c;
        hash_ *= 1099511628211ull;
    }
    // Field separator, so ("ab","c") and ("a","bc") differ.
    hash_ ^= 0xff;
    hash_ *= 1099511628211ull;
}

void
Digest::add(uint64_t v)
{
    add(std::to_string(v));
}

void
Digest::add(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(std::string_view(buf));
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
}

std::map<std::string, std::string>
parseExpected(const std::string &text)
{
    std::map<std::string, std::string> out;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    auto bad = [&](const std::string &why) {
        return std::runtime_error("expected file line " +
                                  std::to_string(line_no) + ": " + why);
    };
    while (std::getline(in, line)) {
        ++line_no;
        if (size_t hash = line.find('#'); hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        std::string name, bits, extra;
        if (!(fields >> name))
            continue;
        if (!(fields >> bits))
            throw bad("'" + name + "' has no bitstring");
        if (fields >> extra)
            throw bad("unexpected '" + extra + "' after the bitstring");
        if (bits.size() > 64)
            throw bad("bitstring longer than 64 bits");
        if (bits.find_first_not_of("01") != std::string::npos)
            throw bad("bitstring '" + bits + "' is not made of 0 and 1");
        if (!out.emplace(name, bits).second)
            throw bad("duplicate entry '" + name + "'");
    }
    return out;
}

uint64_t
bitsToKey(const std::string &bits)
{
    uint64_t key = 0;
    for (size_t k = 0; k < bits.size(); ++k)
        if (bits[k] == '1')
            key |= uint64_t{1} << k;
    return key;
}

} // namespace triqbench
