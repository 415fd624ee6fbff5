/**
 * @file
 * Minimal status/error reporting helpers in the spirit of gem5's
 * logging.hh: panic() for internal invariant violations, fatal() for
 * user/configuration errors, warn()/inform() for status messages.
 *
 * panic() and fatal() only throw: the code that catches the error
 * decides how to report it (a program's top-level catch chain prints
 * "fatal: <what>" or "panic: <what>" once, triqd answers with a
 * structured reply, a sweep cell keeps the text). warn() and inform()
 * print one line to stderr.
 */

#ifndef TRIQ_COMMON_LOGGING_HH
#define TRIQ_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace triq
{

/** Thrown by panic(): an internal TriQ bug (should never happen). */
struct PanicError : std::logic_error
{
    using std::logic_error::logic_error;
};

/** Thrown by fatal(): a user-correctable error (bad input, bad config). */
struct FatalError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

namespace detail
{

/** Print "<level>: <msg>" to stderr unless setQuiet(true). */
void emit(const char *level, const std::string &msg);

inline void
format(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
format(std::ostringstream &os, const T &v, const Rest &...rest)
{
    os << v;
    format(os, rest...);
}

template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    format(os, args...);
    return os.str();
}

} // namespace detail

/** Throw PanicError: an internal invariant was violated. */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    throw PanicError(detail::concat(args...));
}

/** Throw FatalError: a user-correctable error. */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    throw FatalError(detail::concat(args...));
}

/** Report a suspicious-but-survivable condition. */
template <typename... Args>
void
warn(const Args &...args)
{
    detail::emit("warn", detail::concat(args...));
}

/** Report a normal operating status message. */
template <typename... Args>
void
inform(const Args &...args)
{
    detail::emit("info", detail::concat(args...));
}

/** Globally silence warn()/inform() output (used by tests/benches). */
void setQuiet(bool quiet);

} // namespace triq

#endif // TRIQ_COMMON_LOGGING_HH
