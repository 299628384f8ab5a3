/**
 * @file
 * Strict parsing of numeric command-line values. The whole text must
 * be one number of the target type: no sign, no surrounding
 * whitespace, no trailing characters, nothing out of range. "8x",
 * "4abc", "-1" and "4294967304" (for a 32-bit target) are errors,
 * never silently read as some other number.
 */

#ifndef VCOMA_COMMON_PARSE_NUMBER_HH
#define VCOMA_COMMON_PARSE_NUMBER_HH

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace vcoma
{

/**
 * Parse all of @p text as a T: decimal digits for an unsigned integer
 * type, a finite non-negative decimal for double. Returns nothing on
 * any malformed or out-of-range input.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text)
{
    static_assert(std::is_same_v<T, double> ||
                      (std::is_integral_v<T> && std::is_unsigned_v<T>),
                  "parseNumber parses unsigned integers and doubles");
    // from_chars takes no leading '+' and, for unsigned types, no
    // '-'; for double reject '-' here so no target ever sees a sign.
    if (text.empty() || text.front() == '-')
        return std::nullopt;
    const char *const first = text.data();
    const char *const last = first + text.size();
    T value{};
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last)
        return std::nullopt;
    if constexpr (std::is_same_v<T, double>) {
        if (!std::isfinite(value))
            return std::nullopt;
    }
    return value;
}

} // namespace vcoma

#endif // VCOMA_COMMON_PARSE_NUMBER_HH
