/**
 * @file
 * Strict parsers for numeric command-line values. Each one accepts
 * the whole text or nothing: empty input, signs, spaces, trailing
 * characters ("1e6", "2k") and values that overflow the target type
 * are rejected, never truncated or clamped. Callers report a rejected
 * value the way their tool already fails.
 */

#ifndef DARCO_COMMON_PARSE_HH
#define DARCO_COMMON_PARSE_HH

#include <charconv>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

namespace darco::common {

/** Unsigned decimal integer that fits in @p T. */
template <class T>
std::optional<T>
parseUnsigned(std::string_view text)
{
    static_assert(std::is_unsigned_v<T>);
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

/** Shard spec "K/N" with N > 0 and K < N, as (K, N). */
inline std::optional<std::pair<unsigned, unsigned>>
parseShard(std::string_view text)
{
    const size_t slash = text.find('/');
    if (slash == std::string_view::npos)
        return std::nullopt;
    const auto index = parseUnsigned<unsigned>(text.substr(0, slash));
    const auto count = parseUnsigned<unsigned>(text.substr(slash + 1));
    if (!index || !count || *index >= *count)
        return std::nullopt;
    return std::make_pair(*index, *count);
}

} // namespace darco::common

#endif // DARCO_COMMON_PARSE_HH
