// Where a result came from: how the measured code was built and on what
// host, so every number carries its build type, compiler, sanitizer and
// core count.
#pragma once

#include <string>

namespace perfbench {

struct Provenance {
  std::string build_type;  // CMAKE_BUILD_TYPE the benchmark was built with
  std::string compiler;
  std::string sanitizer;   // "none", "thread" or "address"
  bool optimized{false};   // __OPTIMIZE__ defined
  bool asserts_off{false}; // NDEBUG defined
  unsigned nproc{0};
};

Provenance build_provenance();

/// Why numbers from this build must not be recorded ("" if they may):
/// sanitizer builds and unoptimised or assert-enabled builds measure
/// instrumentation, not the runtime.
std::string refusal_reason(const Provenance& p);

}  // namespace perfbench
