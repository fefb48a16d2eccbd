#include "sim/certifier.h"

#include "check/atomicity.h"
#include "hist/wellformed.h"

namespace argus {

void Certifier::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

std::size_t Certifier::check_log(Runtime& rt, const std::string& tag) {
  const auto records = rt.tm().log().records();
  const Timestamp watermark = rt.tm().clock().watermark();
  Timestamp prev = 0;
  for (const auto& record : records) {
    check(record.commit_ts >= prev,
          tag + "log order: record ts " + std::to_string(record.commit_ts) +
              " after ts " + std::to_string(prev));
    prev = record.commit_ts;
    check(record.commit_ts <= watermark,
          tag + "watermark: forced ts " + std::to_string(record.commit_ts) +
              " above watermark " + std::to_string(watermark));
  }
  return records.size();
}

Certifier::HistoryVerdict Certifier::check_history(
    Protocol protocol, const SystemSpec& system, const History& h,
    const std::unordered_set<ActivityId>& read_only, const std::string& tag) {
  WellFormedness wf;
  CheckResult verdict;
  std::string wf_name;
  std::string property;
  switch (protocol) {
    case Protocol::kDynamic:
    case Protocol::kTwoPhase:
    case Protocol::kCommutativity:
      wf = check_well_formed(h);
      wf_name = "well-formed";
      verdict = check_dynamic_atomic(system, h);
      property = "dynamic atomic";
      break;
    case Protocol::kStatic:
    case Protocol::kTimestamp:
      wf = check_well_formed_static(h);
      wf_name = "well-formed(static)";
      verdict = check_static_atomic(system, h);
      property = "static atomic";
      break;
    case Protocol::kHybrid:
    case Protocol::kOcc:
    case Protocol::kMvcc:
      wf = check_well_formed_hybrid(h, read_only);
      wf_name = "well-formed(hybrid)";
      verdict = check_hybrid_atomic(system, h);
      property = "hybrid atomic";
      break;
  }
  check(wf.ok(), tag + wf_name + ": " + wf.summary());
  check(verdict.ok, tag + property + ": " + verdict.explanation);
  return {wf.ok(), verdict.ok};
}

std::uint64_t Certifier::check_sentinel(Runtime& rt, const std::string& tag) {
  AtomicitySentinel* sentinel = rt.sentinel();
  if (sentinel == nullptr) return 0;
  sentinel->stop();
  const std::uint64_t violations = sentinel->violations();
  check(violations == 0, tag + "sentinel: " + sentinel->last_violation());
  rt.stop_sentinel();
  return violations;
}

std::string Certifier::failure() const {
  std::string out;
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += "\n";
    out += failures_[i];
  }
  return out;
}

}  // namespace argus
