/**
 * @file
 * Number parsing for environment variables and command-line flags.
 * The library reads only two settings from the environment: the
 * process memory budget (TRIQ_MEM_BUDGET, envBytes) and the
 * fault-injection test hook (TRIQ_FAULT, TRIQ_FAULT_SEED); everything
 * else is an argument its caller passes. The bench harnesses' integer
 * knobs (TRIQ_TRIALS, TRIQ_DAY, TRIQ_SIM_THREADS) funnel through envInt
 * so malformed values produce one consistent warn-and-fallback
 * behavior instead of silent atoi garbage; the CLI tools read their
 * numeric flags (and triq-sweep its manifest numbers) through
 * flagValue, which rejects the same malformed values with fatal().
 */

#ifndef TRIQ_COMMON_ENV_HH
#define TRIQ_COMMON_ENV_HH

#include <limits>

namespace triq
{

/**
 * Parse all of `text` as a base-10 integer (strtol) or as a finite
 * number (strtod). Returns false and leaves `out` untouched on empty
 * text, trailing characters ("3x", or "1e6" for an integer), overflow
 * or a non-finite value.
 */
bool parseNumber(const char *text, long &out);
bool parseNumber(const char *text, double &out);

/**
 * The value of command-line flag `flag`: all of `text` parsed by
 * parseNumber and within [min_value, max_value]. Anything else ends in
 * fatal() naming the flag and the rejected text. Instantiated for int,
 * long and double.
 */
template <typename T>
T flagValue(const char *flag, const char *text,
            T min_value = std::numeric_limits<T>::lowest(),
            T max_value = std::numeric_limits<T>::max());

/**
 * Read an integer environment variable.
 *
 * @param name Variable name, e.g. "TRIQ_TRIALS".
 * @param fallback Value returned when the variable is unset or invalid.
 * @param min_value Smallest accepted value; anything outside
 *        [min_value, max_value] (or any string that is not a plain
 *        decimal integer, e.g. TRIQ_TRIALS=10x) triggers one warn()
 *        line and returns `fallback` — malformed knobs are never
 *        silently ignored.
 * @param max_value Largest accepted value.
 */
int envInt(const char *name, int fallback, int min_value = 1,
           int max_value = 1000000000);

/**
 * Read a byte-count environment variable (e.g. TRIQ_MEM_BUDGET).
 * Accepts a plain decimal byte count or one with a case-insensitive
 * K/M/G/T suffix (KiB multiples: "256M" = 256·2^20), optionally
 * followed by "B"/"iB" ("256MiB"). Unset returns `fallback` silently;
 * a malformed value, one below `min_value`, or one that overflows
 * uint64 triggers one warn() line and returns `fallback`.
 */
unsigned long long envBytes(const char *name, unsigned long long fallback,
                            unsigned long long min_value = 0);

} // namespace triq

#endif // TRIQ_COMMON_ENV_HH
