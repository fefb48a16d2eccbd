// Vector-clock corpus replay: the checked-in histories in
// tests/corpus/vc/ are minimized disagreement candidates and boundary
// cases worth pinning forever — one per fast-path decision family
// (clean fold, proven violation, escalation-resolved swap, commuting
// swap). Each file carries its expected kEscalating verdict; the replay
// asserts it at several window sizes, for the arrival-order and the
// hold-back fold, and checks the monitoring-only mode's soundness on the
// same history.
//
// The binary doubles as the minimization tool:
//
//   vc_corpus_test --minimize <history-file>
//
// replays a file whose verdict disagrees with its "# expect:" line,
// shrinks it by greedy activity removal to the smallest history that
// still disagrees, and prints the result (ready to check back into the
// corpus, or to attach to a bug).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/vc_atomicity.h"
#include "hist/parse.h"

namespace argus {
namespace {

struct CorpusCase {
  SystemSpec system;
  History history;
  VcVerdict expect{VcVerdict::kPass};
};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Inverse of to_string(ObjectId): "x"/"y"/"z" then "objN".
bool parse_object_name(const std::string& name, ObjectId* out) {
  if (name == "x") {
    *out = ObjectId{0};
    return true;
  }
  if (name == "y") {
    *out = ObjectId{1};
    return true;
  }
  if (name == "z") {
    *out = ObjectId{2};
    return true;
  }
  if (name.rfind("obj", 0) == 0) {
    *out = ObjectId{std::stoull(name.substr(3))};
    return true;
  }
  return false;
}

/// Parses the "# expect:" / "# object <name> <type>" directives plus the
/// history body (parse_history skips the comment lines itself).
bool parse_corpus_case(const std::string& text, CorpusCase* out,
                       std::string* error) {
  bool saw_expect = false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string hash, keyword;
    fields >> hash >> keyword;
    if (hash != "#") continue;
    if (keyword == "expect:") {
      std::string verdict;
      fields >> verdict;
      if (verdict == "pass") {
        out->expect = VcVerdict::kPass;
      } else if (verdict == "violation") {
        out->expect = VcVerdict::kViolation;
      } else if (verdict == "suspicious") {
        out->expect = VcVerdict::kSuspicious;
      } else {
        *error = "unknown expect verdict: " + verdict;
        return false;
      }
      saw_expect = true;
    } else if (keyword == "object") {
      std::string name, type;
      fields >> name >> type;
      ObjectId id;
      if (!parse_object_name(name, &id) || type.empty()) {
        *error = "bad object directive: " + line;
        return false;
      }
      out->system.add_object(id, type);
    }
  }
  if (!saw_expect) {
    *error = "missing '# expect:' directive";
    return false;
  }
  if (out->system.objects().empty()) {
    *error = "missing '# object' directive";
    return false;
  }
  ParseResult parsed = parse_history(text);
  if (!parsed.history.has_value()) {
    *error = parsed.error;
    return false;
  }
  out->history = std::move(*parsed.history);
  return true;
}

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(ARGUS_VC_CORPUS_DIR)) {
    if (entry.path().extension() == ".txt") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

class VcCorpus : public ::testing::TestWithParam<std::filesystem::path> {};

TEST_P(VcCorpus, ReplaysToItsPinnedVerdict) {
  const auto path = GetParam();
  CorpusCase c;
  std::string error;
  ASSERT_TRUE(parse_corpus_case(read_file(path), &c, &error))
      << path << ": " << error;

  for (const std::size_t window : {std::size_t{0}, std::size_t{2},
                                   std::size_t{4}}) {
    const VcReport esc = check_vc_atomic(c.system, c.history, {}, window);
    EXPECT_EQ(esc.verdict, c.expect)
        << path << " window " << window << ": kEscalating said "
        << to_string(esc.verdict);

    // Monitoring-only soundness on the same history: never PASS a pinned
    // violation, never claim a violation on a pinned pass.
    VcCheckerOptions vc_only;
    vc_only.escalate = false;
    const VcReport vc = check_vc_atomic(c.system, c.history, vc_only, window);
    if (c.expect == VcVerdict::kViolation) {
      EXPECT_NE(vc.verdict, VcVerdict::kPass) << path << " window " << window;
    } else if (c.expect == VcVerdict::kPass) {
      EXPECT_NE(vc.verdict, VcVerdict::kViolation)
          << path << " window " << window;
    }

    // The sentinel's hold-back configuration reaches the pinned verdict
    // without escalating.
    VcCheckerOptions held;
    held.hold_back = true;
    const VcReport hb = check_vc_atomic(c.system, c.history, held, window);
    EXPECT_EQ(hb.verdict, c.expect) << path << " window " << window;
    EXPECT_EQ(hb.stats.escalations, 0u) << path << " window " << window;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, VcCorpus, ::testing::ValuesIn(corpus_files()),
                         [](const auto& info) {
                           std::string name = info.param.stem().string();
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           }
                           return name;
                         });

TEST(VcCorpus, CorpusIsNotEmpty) { EXPECT_GE(corpus_files().size(), 3u); }

History drop_activity(const History& h, ActivityId a) {
  std::vector<Event> kept;
  for (const Event& e : h.events()) {
    if (e.activity != a) kept.push_back(e);
  }
  return History(std::move(kept));
}

int minimize_main(const std::string& file) {
  CorpusCase c;
  std::string error;
  if (!parse_corpus_case(read_file(file), &c, &error)) {
    std::cerr << "cannot parse " << file << ": " << error << "\n";
    return 2;
  }
  const auto disagrees = [&c](const History& h) {
    return check_vc_atomic(c.system, h).verdict != c.expect;
  };
  if (!disagrees(c.history)) {
    std::cout << "history replays to its pinned verdict ("
              << to_string(c.expect) << "); nothing to minimize\n";
    return 0;
  }
  std::cout << "verdict disagrees with the pinned "
            << to_string(c.expect) << "; minimizing over "
            << c.history.activities().size() << " activities...\n";
  History current = c.history;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (ActivityId a : current.activities()) {
      History candidate = drop_activity(current, a);
      if (disagrees(candidate)) {
        current = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  const VcReport report = check_vc_atomic(c.system, current);
  std::cout << "\nsmallest disagreeing history ("
            << current.activities().size() << " activities), kEscalating says "
            << to_string(report.verdict) << ":\n\n"
            << current.to_string() << "\n";
  return 1;  // the history still disagrees — that is the point of the tool
}

}  // namespace
}  // namespace argus

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--minimize") {
    return argus::minimize_main(argv[2]);
  }
  if (argc == 2 && std::string(argv[1]) == "--minimize") {
    std::cerr << "usage: " << argv[0] << " --minimize <history-file>\n";
    return 2;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
