//===----------------------------------------------------------------------===//
//
// Part of the padx project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-string decimal parsing for integer, duration and guard
/// command-line flags. std::atoll followed by a cast reads "12abc" as 12
/// and "abc" as 0, and wraps 4294967297 to 1 in an unsigned field;
/// std::atof also reads "nan" and "inf". parseInteger and parseNumber
/// take the whole string or nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PADX_SUPPORT_PARSEINTEGER_H
#define PADX_SUPPORT_PARSEINTEGER_H

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
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

/// parseInteger for the value \p Text of command-line flag \p Flag. A
/// bad value prints one "error: <Flag> takes an integer in [<Min>,
/// <Max>], got '<Text>'" line to stderr and exits with \p ExitCode.
template <typename T>
T parseIntegerFlag(std::string_view Flag, const char *Text, T Min, T Max,
                   int ExitCode) {
  if (std::optional<T> V = parseInteger<T>(Text, Min, Max))
    return *V;
  std::fprintf(stderr,
               "error: %.*s takes an integer in [%s, %s], got '%s'\n",
               static_cast<int>(Flag.size()), Flag.data(),
               std::to_string(Min).c_str(), std::to_string(Max).c_str(),
               Text);
  std::exit(ExitCode);
}

/// Parses all of \p Text as a finite decimal number in [\p Min, \p Max],
/// in std::from_chars' general format ("2", "0.5", "1e10"). Returns
/// std::nullopt for an empty string, a leading '+' or space, any
/// trailing byte, "nan", "inf", a value past double's range ("1e400"),
/// or a value outside [Min, Max].
inline std::optional<double> parseNumber(std::string_view Text, double Min,
                                         double Max) {
  double Value = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Ptr != End || !std::isfinite(Value) ||
      Value < Min || Value > Max)
    return std::nullopt;
  return Value;
}

/// parseNumber for the value \p Text of duration flag \p Flag: a
/// finite number above 0, or at least 0 when \p ZeroAllowed (a flag
/// whose 0 means "unset"). A bad value prints one "error: <Flag> takes
/// a finite number > 0, got '<Text>'" line (">= 0" when \p ZeroAllowed)
/// to stderr and exits with \p ExitCode.
inline double parseNumberFlag(std::string_view Flag, const char *Text,
                              bool ZeroAllowed, int ExitCode) {
  const double Min =
      ZeroAllowed ? 0.0 : std::numeric_limits<double>::denorm_min();
  if (std::optional<double> V =
          parseNumber(Text, Min, std::numeric_limits<double>::max()))
    return *V;
  std::fprintf(stderr, "error: %.*s takes a finite number %s 0, got '%s'\n",
               static_cast<int>(Flag.size()), Flag.data(),
               ZeroAllowed ? ">=" : ">", Text);
  std::exit(ExitCode);
}

/// parseNumber for the value \p Text of flag \p Flag, which takes a
/// finite number in [\p Min, \p Max] (a correlation guard in [-1, 1]).
/// A bad value prints one "error: <Flag> takes a number in [<Min>,
/// <Max>], got '<Text>'" line to stderr and exits with \p ExitCode.
inline double parseNumberFlag(std::string_view Flag, const char *Text,
                              double Min, double Max, int ExitCode) {
  if (std::optional<double> V = parseNumber(Text, Min, Max))
    return *V;
  std::fprintf(stderr, "error: %.*s takes a number in [%g, %g], got '%s'\n",
               static_cast<int>(Flag.size()), Flag.data(), Min, Max, Text);
  std::exit(ExitCode);
}

} // namespace padx

#endif // PADX_SUPPORT_PARSEINTEGER_H
