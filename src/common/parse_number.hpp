// Number text: checked parsing of numeric values (command-line flags, pass
// and fault-model arguments, RDC_CHAOS) and the one shortest round-trip
// formatter for doubles (canonical spec strings, metric gauges, JSON).
//
// std::atoi/atof/strtod(…, nullptr) turn "abc" into 0 and "-1" into a huge
// unsigned value without complaint, so a mistyped flag silently changes
// behaviour. parse_number accepts a value only if it parses completely and
// fits the target type; callers reject the text otherwise.
#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace rdc {

/// Parses all of `text` as a decimal T. The whole string must be consumed
/// (no leading '+' or whitespace, no trailing characters), the value must be
/// within T's range (so "-1" is rejected for unsigned T), and floating-point
/// values must be finite. On failure returns false and leaves `out`
/// untouched.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(value)) return false;
  out = value;
  return true;
}

/// Shortest decimal form of `value` that parses back to the same double
/// (std::to_chars), so canonical strings are deterministic.
inline std::string format_double(double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

}  // namespace rdc
