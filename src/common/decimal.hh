/**
 * @file
 * The one reader of typed-in non-negative integers (key=value params
 * and numeric flags): decimal digits only, so "02000" is 2000 and
 * never octal, and "0x800", "5k", "-1", "" or a value above the
 * caller's bound is refused instead of run as some other number.
 */

#ifndef ZMT_COMMON_DECIMAL_HH
#define ZMT_COMMON_DECIMAL_HH

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace zmt
{

/** @p text as a decimal integer no larger than @p max, or nullopt. */
inline std::optional<uint64_t>
parseDecimal(std::string_view text, uint64_t max)
{
    uint64_t value = 0;
    const char *end = text.data() + text.size();
    auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end || value > max)
        return std::nullopt;
    return value;
}

} // namespace zmt

#endif // ZMT_COMMON_DECIMAL_HH
