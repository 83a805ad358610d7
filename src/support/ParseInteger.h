//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-string decimal parsing for integer command-line flags.
/// std::atoll followed by a cast reads "12abc" as 12 and "abc" as 0, and
/// wraps 4294967297 to 1 in an unsigned field; parseInteger takes the
/// whole string or nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_SUPPORT_PARSEINTEGER_H
#define PADX_SUPPORT_PARSEINTEGER_H

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace padx {

/// Parses all of \p Text as a base-10 integer in [\p Min, \p Max].
/// Returns std::nullopt for an empty string, a leading '+' or space, a
/// '-' on an unsigned T, any trailing byte, or a value outside the range
/// (including one that overflows T).
template <typename T>
std::optional<T> parseInteger(std::string_view Text, T Min, T Max) {
  static_assert(std::is_integral_v<T>, "parseInteger parses integers");
  T Value{};
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Ptr != End || Value < Min || Value > Max)
    return std::nullopt;
  return Value;
}

} // namespace padx

#endif // PADX_SUPPORT_PARSEINTEGER_H
