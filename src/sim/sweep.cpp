#include "sim/sweep.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace argus {

std::uint64_t smallest_failing(
    std::uint64_t lo, std::uint64_t hi,
    const std::function<bool(std::uint64_t)>& fails) {
  if (fails(lo)) return lo;
  // Invariant: passes at lo, fails at hi.
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (fails(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

void write_sweep_artifact(const std::string& name, const std::string& failure,
                          const std::string& config) {
  const char* dir = std::getenv("ARGUS_SWEEP_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::filesystem::create_directories(dir);
  std::ofstream out(std::filesystem::path(dir) / (name + ".txt"));
  out << "# auto-minimized failing config (replay: corpus_test --minimize)\n"
      << "# failure:\n";
  std::istringstream why(failure);
  std::string line;
  while (std::getline(why, line)) out << "#   " << line << "\n";
  out << config;
}

}  // namespace argus
