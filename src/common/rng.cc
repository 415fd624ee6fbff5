#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/types.hh"

namespace triq
{

namespace
{

/** splitmix64: used to expand seeds into full xoshiro state. */
uint64_t
splitmix64(uint64_t &x)
{
    uint64_t z = (x += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** FNV-1a hash for string seeds. */
uint64_t
hashString(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

Rng::Rng(uint64_t seed) : cachedNormal_(0.0), hasCachedNormal_(false)
{
    uint64_t x = seed;
    for (auto &w : s_)
        w = splitmix64(x);
}

Rng::Rng(const std::string &seed) : Rng(hashString(seed))
{
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

void
Rng::nonPositiveBound(int n)
{
    panic("Rng::uniformInt: n must be positive, got ", n);
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    double r = std::sqrt(-2.0 * std::log(u1));
    cachedNormal_ = r * std::sin(2.0 * kPi * u2);
    hasCachedNormal_ = true;
    return r * std::cos(2.0 * kPi * u2);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::logNormal(double median, double sigma)
{
    if (median <= 0.0)
        panic("Rng::logNormal: median must be positive, got ", median);
    return median * std::exp(sigma * normal());
}

Rng
Rng::stream(uint64_t seed, uint64_t stream_index)
{
    // Two splitmix64 rounds over (seed, index) so that consecutive
    // stream indices land in unrelated xoshiro states.
    uint64_t x = seed;
    uint64_t h = splitmix64(x);
    x = h ^ (stream_index * 0xD1342543DE82EF95ull);
    return Rng(splitmix64(x));
}

Rng
Rng::fork(uint64_t tag) const
{
    // Derive a child seed from the current state and the tag; the parent
    // state is not advanced, so forks are order-independent.
    uint64_t x = s_[0] ^ rotl(s_[2], 13) ^ (tag * 0xD1342543DE82EF95ull);
    return Rng(splitmix64(x));
}

} // namespace triq
