/**
 * @file
 * Environment-variable helpers shared by the harness and the machine:
 * boolean knobs (VCOMA_NO_CACHE) and numeric-or-boolean
 * knobs that both enable a feature and tune it (VCOMA_CHECK,
 * VCOMA_WATCHDOG).
 */

#ifndef VCOMA_COMMON_ENV_HH
#define VCOMA_COMMON_ENV_HH

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/logging.hh"

namespace vcoma
{

/**
 * Is the boolean-ish environment variable @p name set to a truthy
 * value? "", "0", "false", "no" and "off" (any case) are falsy;
 * "1", "true", "yes" and "on" are truthy; anything else warns and
 * counts as truthy (the variable was set, so honour the intent).
 */
inline bool
envTruthy(const char *name)
{
    const char *s = std::getenv(name);
    if (!s)
        return false;
    std::string v(s);
    for (char &c : v)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (v.empty() || v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    if (v != "1" && v != "true" && v != "yes" && v != "on")
        warn(name, "='", s, "' is not a recognised boolean; "
             "treating as enabled");
    return true;
}

/**
 * Numeric-or-boolean environment knob. Unset or falsy values yield 0
 * (feature off); a number greater than 1 (decimal or 0x-prefixed
 * hex, surrounding whitespace tolerated) yields that number; any
 * other truthy value ("1", "true", ...) yields @p enabledDefault.
 * One variable can thus both switch a feature on and tune it
 * (VCOMA_CHECK=1 vs VCOMA_CHECK=256). A value that starts with a
 * number but carries trailing garbage ("5x", "16 pages") is rejected
 * with a warning naming the variable and the ignored suffix, and
 * yields @p enabledDefault — it is never silently misread as a
 * different number.
 */
inline std::uint64_t
envScaledFlag(const char *name, std::uint64_t enabledDefault)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return 0;
    // strtoull accepts a leading '-' and wraps it modulo 2^64, which
    // would silently turn e.g. VCOMA_CHECK=-1 into a huge interval.
    const char *p = s;
    while (std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    if (*p == '-') {
        warn(name, "='", s, "' is negative; using the default of ",
             enabledDefault);
        return enabledDefault;
    }
    // Base 16 only behind an explicit 0x prefix; a leading zero must
    // not silently switch to octal.
    const int base =
        (p[0] == '0' && (p[1] == 'x' || p[1] == 'X')) ? 16 : 10;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, base);
    if (end != p) {
        const char *rest = end;
        while (std::isspace(static_cast<unsigned char>(*rest)))
            ++rest;
        if (*rest != '\0') {
            warn(name, "='", s, "': trailing '", end,
                 "' is not part of a number; using the default of ",
                 enabledDefault);
            return enabledDefault;
        }
        return v > 1 ? v : (v == 1 ? enabledDefault : 0);
    }
    return envTruthy(name) ? enabledDefault : 0;
}

} // namespace vcoma

#endif // VCOMA_COMMON_ENV_HH
