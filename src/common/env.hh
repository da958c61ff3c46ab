/**
 * @file
 * Strict environment-variable parsing.
 *
 * The worker pool reads $REFRINT_JOBS, the benches their own
 * numeric settings, and the CLI its numeric flags.  atoll-style
 * parsing silently turns garbage like "1e6" into 1, which makes a
 * 120'000-ref sweep quietly run one reference per core — so parsing is
 * strict here: plain decimal digits only, and anything else is
 * rejected with a warning.
 */

#ifndef REFRINT_COMMON_ENV_HH
#define REFRINT_COMMON_ENV_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>

#include "common/log.hh"

namespace refrint
{

/**
 * Parse @p s as a strictly-decimal unsigned integer.
 * @return true and set @p out only if the whole string is digits and
 *         fits in 64 bits; "1e6", "12k", "-3", "" all fail.
 */
inline bool
parseU64Strict(const char *s, std::uint64_t &out)
{
    if (s == nullptr || *s == '\0')
        return false;
    for (const char *p = s; *p != '\0'; ++p)
        if (*p < '0' || *p > '9')
            return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno == ERANGE || end == s || *end != '\0')
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

/**
 * Parse @p s as a strict finite decimal floating-point number: the
 * whole string must be consumed and the value must be finite.  Unlike
 * atof, "abc" and "" fail instead of silently becoming 0, and trailing
 * junk ("50us") is rejected.
 */
inline bool
parseF64Strict(const char *s, double &out)
{
    if (s == nullptr || *s == '\0')
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (errno == ERANGE || end == s || *end != '\0')
        return false;
    if (!(v == v) || v > 1e300 || v < -1e300) // NaN / inf guards
        return false;
    out = v;
    return true;
}

/**
 * Read $@p name as a strict decimal integer; a malformed value is
 * warned about (naming the variable) and @p fallback is returned, as
 * it is for an unset variable.
 */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *s = std::getenv(name);
    if (s == nullptr)
        return fallback;
    std::uint64_t v = 0;
    if (!parseU64Strict(s, v)) {
        warn("%s: ignoring malformed value '%s' (want plain decimal "
             "digits)", name, s);
        return fallback;
    }
    return v;
}

} // namespace refrint

#endif // REFRINT_COMMON_ENV_HH
