#include "provenance.h"

#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PERFBENCH_TSAN 1
#endif
#if __has_feature(address_sanitizer)
#define PERFBENCH_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define PERFBENCH_TSAN 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_ASAN 1
#endif

namespace perfbench {

Provenance build_provenance() {
  Provenance p;
  p.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  p.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  p.compiler = std::string("gcc ") + __VERSION__;
#else
  p.compiler = "unknown";
#endif
#if defined(PERFBENCH_TSAN)
  p.sanitizer = "thread";
#elif defined(PERFBENCH_ASAN)
  p.sanitizer = "address";
#else
  p.sanitizer = "none";
#endif
#if defined(__OPTIMIZE__)
  p.optimized = true;
#endif
#if defined(NDEBUG)
  p.asserts_off = true;
#endif
  p.nproc = std::thread::hardware_concurrency();
  return p;
}

std::string refusal_reason(const Provenance& p) {
  if (p.sanitizer != "none") return p.sanitizer + " sanitizer build";
  if (!p.optimized) return "unoptimised build (no __OPTIMIZE__)";
  if (!p.asserts_off) return "assertions enabled (NDEBUG not defined)";
  return "";
}

}  // namespace perfbench
