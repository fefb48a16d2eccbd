// Text codec for sweep case files: the `key value` line lexer every
// case format shares, and the FaultPlan keys every format carries after
// its own (tests/corpus/**).
//
// Lexical rules (the same as hist/parse.h): one entry per line,
// surrounding whitespace trimmed, blank lines and '#' comments skipped.
// Numbers are whole unsigned decimal tokens, range-checked against the
// field they land in: `12abc`, `1e3`, `-1`, or 2^32 + 1 in a 32-bit
// field are errors, never silent truncations.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "fault/fault.h"

namespace argus {

/// Handles one `key value` entry: returns "" on success, else why not.
using ConfigEntry = std::function<std::string(const std::string& key,
                                               const std::string& value)>;

/// Feeds every `key value` line of `text` to `entry`. Returns false and
/// sets *error to "line N: why" on the first malformed line or the first
/// entry `entry` rejects.
[[nodiscard]] bool parse_config_lines(const std::string& text,
                                      const ConfigEntry& entry,
                                      std::string* error);

/// Parses a whole unsigned decimal token into *out (any integer or bool
/// field; bool takes 0 or 1), rejecting values below `min`. Returns ""
/// on success, else why not.
template <typename T>
[[nodiscard]] std::string parse_config_number(const std::string& value,
                                              T* out, T min = 0) {
  std::uint64_t n = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, n);
  if (ec == std::errc::invalid_argument || ptr != end) {
    return "not a number: " + value;
  }
  if (ec == std::errc::result_out_of_range ||
      n > static_cast<std::uint64_t>(std::numeric_limits<T>::max()) ||
      n < static_cast<std::uint64_t>(min)) {
    return "out of range: " + value;
  }
  *out = static_cast<T>(n);
  return {};
}

/// Which FaultPlan keys a case format carries. Single-site formats (the
/// fault and schedule sweeps) leave out the knobs only a DistRuntime
/// reads: site churn, coordinator crashes, decision-log and message
/// faults.
enum class PlanKeys { kSingleSite, kMultiSite };

/// The plan's keys as `key value` lines, in one fixed order.
[[nodiscard]] std::string to_config_lines(const FaultPlan& plan,
                                          PlanKeys keys);

/// Applies one entry to *plan. Returns "" on success, else why not —
/// including "unknown key" when `key` is none of the plan's keys in
/// scope, so a case parser can hand it every key it does not own.
[[nodiscard]] std::string parse_plan_entry(const std::string& key,
                                           const std::string& value,
                                           PlanKeys keys, FaultPlan* plan);

}  // namespace argus
