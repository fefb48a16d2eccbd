// Corpus replay for the three certifying sweeps. Every checked-in config
// is a case worth pinning forever:
//
//   tests/corpus/*.txt        fault sweep: one per crash-point family
//   tests/corpus/sched/*.txt  schedule explorer: minimized failing
//                             schedules of the chaos-admission regression
//   tests/corpus/dist/*.txt   dist sweep: mid-2PC site loss, in-doubt
//                             promotion, catch-up, coordinator crashes
//
// A case with weaken_admission must still FAIL (if it starts passing,
// the replay machinery lost the interleaving); every other case must
// certify. Two runs of a case must match in trace, failure text and
// counters (if they drift, determinism broke). ctest runs each
// directory under its sweep's name and label: fault_corpus_test
// (faultsweep), sched_corpus_test (dsched), dist_corpus_test (dist).
//
// The binary doubles as the minimization tool for all three formats:
//
//   corpus_test --minimize <config-file>
//
// runs a failing config, shrinks it (fault budget or schedule prefix)
// and prints the smallest config that still fails, ready to check back
// into the corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/dist_sweep.h"
#include "sim/fault_sweep.h"
#include "sim/sched_explore.h"
#include "test_util.h"

namespace argus {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

enum class Sweep { kFault, kSched, kDist };

struct CorpusFile {
  Sweep sweep;
  std::filesystem::path path;
};

std::vector<CorpusFile> corpus_files(Sweep sweep) {
  std::filesystem::path dir(ARGUS_CORPUS_DIR);
  if (sweep == Sweep::kSched) dir /= "sched";
  if (sweep == Sweep::kDist) dir /= "dist";
  std::vector<CorpusFile> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".txt") {
      out.push_back({sweep, entry.path()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.path < b.path; });
  return out;
}

template <typename Case>
void replay_twice(const std::filesystem::path& path) {
  Case c;
  std::string error;
  ASSERT_TRUE(parse_case(read_file(path), &c, &error))
      << path << ": " << error;
  bool must_fail = false;
  if constexpr (requires { c.weaken_admission; }) {
    must_fail = c.weaken_admission;
  }

  const auto first = testutil::expect_replays_byte_equal(c);
  EXPECT_EQ(first.ok, !must_fail)
      << path << (must_fail ? ": the pinned violation no longer reproduces"
                            : ": does not certify\n" + first.failure);
  EXPECT_FALSE(first.trace.empty());
}

class Corpus : public ::testing::TestWithParam<CorpusFile> {};

TEST_P(Corpus, ReplaysToItsVerdictByteEqual) {
  const auto& [sweep, path] = GetParam();
  switch (sweep) {
    case Sweep::kFault:
      return replay_twice<FaultSweepCase>(path);
    case Sweep::kSched:
      return replay_twice<SchedCase>(path);
    case Sweep::kDist:
      return replay_twice<DistSweepCase>(path);
  }
}

std::string file_name(const ::testing::TestParamInfo<CorpusFile>& info) {
  std::string name = info.param.path.stem().string();
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Fault, Corpus,
                         ::testing::ValuesIn(corpus_files(Sweep::kFault)),
                         file_name);
INSTANTIATE_TEST_SUITE_P(Sched, Corpus,
                         ::testing::ValuesIn(corpus_files(Sweep::kSched)),
                         file_name);
INSTANTIATE_TEST_SUITE_P(Dist, Corpus,
                         ::testing::ValuesIn(corpus_files(Sweep::kDist)),
                         file_name);

class CorpusDir : public ::testing::TestWithParam<Sweep> {};

TEST_P(CorpusDir, HoldsAtLeastThreeCases) {
  EXPECT_GE(corpus_files(GetParam()).size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Fault, CorpusDir, ::testing::Values(Sweep::kFault));
INSTANTIATE_TEST_SUITE_P(Sched, CorpusDir, ::testing::Values(Sweep::kSched));
INSTANTIATE_TEST_SUITE_P(Dist, CorpusDir, ::testing::Values(Sweep::kDist));

template <typename Case>
int minimize_case(const Case& c) {
  const auto full = run_case(c);
  if (full.ok) {
    std::cout << "config passes; nothing to minimize\n";
    return 0;
  }
  std::cout << "config fails:\n" << full.failure << "\n\nminimizing...\n";
  const Case minimized =
      minimize(c, full, [](const Case& probe) { return !run_case(probe).ok; });
  std::cout << "\nsmallest config that still fails:\n"
            << to_config_string(minimized) << "\nits failure:\n"
            << run_case(minimized).failure << "\n";
  return 1;  // the config still fails — that is the point of the tool
}

/// Each format has keys the other two reject, so a real config parses
/// as exactly one case type.
int minimize_main(const std::string& file) {
  const std::string text = read_file(file);
  std::string error;
  if (FaultSweepCase c; parse_case(text, &c, &error)) return minimize_case(c);
  if (SchedCase c; parse_case(text, &c, &error)) return minimize_case(c);
  if (DistSweepCase c; parse_case(text, &c, &error)) return minimize_case(c);
  std::cerr << "cannot parse " << file << " as a fault, sched or dist case: "
            << error << "\n";
  return 2;
}

}  // namespace
}  // namespace argus

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--minimize") {
    return argus::minimize_main(std::string(argv[2]));
  }
  if (argc == 2 && std::string(argv[1]) == "--minimize") {
    std::cerr << "usage: " << argv[0] << " --minimize <config-file>\n";
    return 2;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
