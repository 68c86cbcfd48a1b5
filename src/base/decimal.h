/**
 * @file
 * Strict decimal reader for the counts command-line tools accept
 * (--watchdog=N, --iterations=N, --top=N, ...).
 */

#ifndef BEETHOVEN_BASE_DECIMAL_H
#define BEETHOVEN_BASE_DECIMAL_H

#include <charconv>
#include <optional>
#include <string_view>

#include "base/types.h"

namespace beethoven
{

/**
 * @p text as an unsigned decimal count: one or more digits and nothing
 * else (no sign, space or suffix), no larger than a u64 holds. Returns
 * std::nullopt otherwise, so the caller can name the flag it read.
 */
inline std::optional<u64>
parseDecimal(std::string_view text)
{
    u64 value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

} // namespace beethoven

#endif // BEETHOVEN_BASE_DECIMAL_H
