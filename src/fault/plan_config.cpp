#include "fault/plan_config.h"

#include <sstream>
#include <type_traits>
#include <variant>

namespace argus {

namespace {

/// A FaultSite field restricted to one contiguous run of sites: a crash
/// pinned anywhere else could never fire, and the case would silently
/// test nothing.
struct SiteField {
  FaultSite FaultPlan::*member;
  FaultSite first;
  FaultSite last;
  const char* what;
};

struct PlanKey {
  const char* key;
  bool multi_site;  // read only by DistRuntime
  std::variant<std::uint64_t FaultPlan::*, std::uint32_t FaultPlan::*,
               SiteField>
      field;
};

// One line per FaultPlan field; the order is the printed order.
const PlanKey kPlanKeys[] = {
    {"seed", false, &FaultPlan::seed},
    {"site_fail_permille", true, &FaultPlan::site_fail_permille},
    {"site_recover_permille", true, &FaultPlan::site_recover_permille},
    {"force_fail_permille", false, &FaultPlan::force_fail_permille},
    {"force_max_retries", false, &FaultPlan::force_max_retries},
    {"force_retry_backoff_us", false, &FaultPlan::force_retry_backoff_us},
    {"torn_batch_permille", false, &FaultPlan::torn_batch_permille},
    {"leader_latency_permille", false, &FaultPlan::leader_latency_permille},
    {"leader_latency_us", false, &FaultPlan::leader_latency_us},
    {"crash_point", false,
     SiteField{&FaultPlan::crash_point, FaultSite::kPreForce,
               FaultSite::kPostApplyPreWatermark, "crash point"}},
    {"crash_at", false, &FaultPlan::crash_at_arrival},
    {"spurious_timeout_permille", false,
     &FaultPlan::spurious_timeout_permille},
    {"delayed_wakeup_permille", false, &FaultPlan::delayed_wakeup_permille},
    {"delayed_wakeup_us", false, &FaultPlan::delayed_wakeup_us},
    {"coord_crash_point", true,
     SiteField{&FaultPlan::coord_crash_point, FaultSite::kCoordPrePrepare,
               FaultSite::kCoordMidDelivery, "coordinator crash point"}},
    {"coord_crash_at", true, &FaultPlan::coord_crash_at_arrival},
    {"coord_recover_permille", true, &FaultPlan::coord_recover_permille},
    {"decision_force_fail_permille", true,
     &FaultPlan::decision_force_fail_permille},
    {"msg_loss_permille", true, &FaultPlan::msg_loss_permille},
    {"msg_latency_permille", true, &FaultPlan::msg_latency_permille},
    {"msg_latency_us", true, &FaultPlan::msg_latency_us},
    {"msg_retries", true, &FaultPlan::msg_retries},
    {"max_faults", false, &FaultPlan::max_faults},
};

bool in_scope(const PlanKey& k, PlanKeys keys) {
  return !k.multi_site || keys == PlanKeys::kMultiSite;
}

}  // namespace

bool parse_config_lines(const std::string& text, const ConfigEntry& entry,
                        std::string* error) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);
    if (line[0] == '#') continue;

    std::istringstream fields(line);
    std::string key, value, extra;
    const std::string why = (fields >> key >> value) && !(fields >> extra)
                                ? entry(key, value)
                                : "expected `key value`: " + line;
    if (!why.empty()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + why;
      }
      return false;
    }
  }
  return true;
}

std::string to_config_lines(const FaultPlan& plan, PlanKeys keys) {
  std::ostringstream out;
  for (const PlanKey& k : kPlanKeys) {
    if (!in_scope(k, keys)) continue;
    out << k.key << " ";
    std::visit(
        [&](const auto& field) {
          if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                       SiteField>) {
            out << to_string(plan.*field.member);
          } else {
            out << plan.*field;
          }
        },
        k.field);
    out << "\n";
  }
  return out.str();
}

std::string parse_plan_entry(const std::string& key, const std::string& value,
                             PlanKeys keys, FaultPlan* plan) {
  for (const PlanKey& k : kPlanKeys) {
    if (key != k.key || !in_scope(k, keys)) continue;
    return std::visit(
        [&](const auto& field) -> std::string {
          if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                       SiteField>) {
            const auto site = fault_site_from_string(value);
            if (!site || *site < field.first || *site > field.last) {
              std::string why = std::string("unknown ") + field.what + ": " +
                                value + " (one of";
              for (auto s = static_cast<int>(field.first);
                   s <= static_cast<int>(field.last); ++s) {
                why += " " + to_string(static_cast<FaultSite>(s));
              }
              return why + ")";
            }
            plan->*field.member = *site;
            return {};
          } else {
            return parse_config_number(value, &(plan->*field));
          }
        },
        k.field);
  }
  return "unknown key: " + key;
}

}  // namespace argus
