/**
 * @file
 * gem5-style logging helpers: panic() for internal invariant violations,
 * fatal() for user-caused errors, warn() for status messages.
 */

#ifndef SPARSECORE_COMMON_LOGGING_HH
#define SPARSECORE_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace sc {

/** Thrown by panicOrThrow-style checks so tests can assert on them. */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Format a printf-style message into a std::string. */
std::string vstrprintf(const char *fmt, std::va_list ap);

/** Format a printf-style message into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal simulator bug. Throws SimError (instead of
 * aborting) so the condition is unit-testable; callers must not catch
 * it except at test boundaries.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user error (bad config, bad input). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Enable/disable warn() output (benches silence them). */
void setVerbose(bool verbose);

} // namespace sc

#endif // SPARSECORE_COMMON_LOGGING_HH
