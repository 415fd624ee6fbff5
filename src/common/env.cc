#include "common/env.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <type_traits>

#include "common/logging.hh"

namespace triq
{

bool
parseNumber(const char *text, long &out)
{
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0)
        return false;
    out = v;
    return true;
}

bool
parseNumber(const char *text, double &out)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno != 0 || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

template <typename T>
T
flagValue(const char *flag, const char *text, T min_value, T max_value)
{
    constexpr bool integral = std::is_integral_v<T>;
    std::conditional_t<integral, long, double> v = 0;
    if (parseNumber(text, v) && v >= min_value && v <= max_value)
        return static_cast<T>(v);
    const char *kind = integral ? "an integer" : "a finite number";
    if (max_value < std::numeric_limits<T>::max())
        fatal(flag, ": '", text, "' is not ", kind, " in [", min_value,
              ", ", max_value, "]");
    if (min_value > std::numeric_limits<T>::lowest())
        fatal(flag, ": '", text, "' is not ", kind, " >= ", min_value);
    fatal(flag, ": '", text, "' is not ", kind);
}

template int flagValue<int>(const char *, const char *, int, int);
template long flagValue<long>(const char *, const char *, long, long);
template double flagValue<double>(const char *, const char *, double,
                                  double);

int
envInt(const char *name, int fallback, int min_value, int max_value)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    long v = 0;
    if (!parseNumber(env, v) || v < min_value || v > max_value) {
        warn(name, "='", env, "' is not an integer in [", min_value, ", ",
             max_value, "]; using ", fallback);
        return fallback;
    }
    return static_cast<int>(v);
}

unsigned long long
envBytes(const char *name, unsigned long long fallback,
         unsigned long long min_value)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    // strtoull wraps negative input instead of failing; reject any '-'
    // ahead of the digits explicitly.
    bool negative = false;
    for (const char *p = env; p != end; ++p)
        negative = negative || *p == '-';
    bool parsed = end != env && errno == 0 && !negative;
    unsigned long long shift = 0;
    if (parsed && *end != '\0') {
        switch (*end) {
        case 'k': case 'K': shift = 10; ++end; break;
        case 'm': case 'M': shift = 20; ++end; break;
        case 'g': case 'G': shift = 30; ++end; break;
        case 't': case 'T': shift = 40; ++end; break;
        default: parsed = false; break;
        }
        // Tolerate an explicit unit tail: "256MB", "2GiB".
        if (parsed && (*end == 'i' || *end == 'I'))
            ++end;
        if (parsed && (*end == 'b' || *end == 'B'))
            ++end;
        if (*end != '\0')
            parsed = false;
    }
    bool overflow = shift > 0 && v > (~0ULL >> shift);
    if (!parsed || overflow || v << shift < min_value) {
        warn(name, "='", env, "' is not a byte count >= ", min_value,
             " (expected e.g. 1073741824, 256M, 2G); using ", fallback);
        return fallback;
    }
    return v << shift;
}

} // namespace triq
