#include "sched/factory.h"

namespace argus {

std::string to_string(Protocol p) {
  switch (p) {
    case Protocol::kDynamic:
      return "dynamic";
    case Protocol::kStatic:
      return "static";
    case Protocol::kHybrid:
      return "hybrid";
    case Protocol::kTwoPhase:
      return "2pl";
    case Protocol::kCommutativity:
      return "comm-lock";
    case Protocol::kTimestamp:
      return "timestamp";
    case Protocol::kOcc:
      return "occ";
    case Protocol::kMvcc:
      return "mvcc";
  }
  return "?";
}

std::optional<Protocol> protocol_from_string(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(Protocol::kMvcc); ++i) {
    const auto p = static_cast<Protocol>(i);
    if (to_string(p) == name) return p;
  }
  return std::nullopt;
}

bool supports_snapshot_reads(Protocol p) {
  return p == Protocol::kHybrid || p == Protocol::kStatic ||
         p == Protocol::kMvcc;
}

}  // namespace argus
