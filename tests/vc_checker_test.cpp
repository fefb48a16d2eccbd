// VectorClockChecker unit tests: canonical order, the memoized conflict
// relation, eager fold certification, escalation, immediate violations,
// and straggler handling. The bulk differential certification against
// the exact checkers lives in vc_differential_test (label vccheck).
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "check/atomicity.h"
#include "check/vc_atomicity.h"
#include "test_util.h"

namespace argus {
namespace {

using namespace testutil;

SystemSpec one_set() {
  SystemSpec sys;
  sys.add_object(X, "int_set");
  return sys;
}

/// Feeds events to a checker and owns them: the checker keeps pointers.
class Feeder {
 public:
  explicit Feeder(VectorClockChecker& checker) : checker_(checker) {}
  void operator()(SequencedEvent se) {
    owned_.push_back(std::move(se));
    checker_.feed(&owned_.back());
  }

 private:
  VectorClockChecker& checker_;
  std::deque<SequencedEvent> owned_;  // push_back never moves elements
};

TEST(CanonicalOrder, TimestampsAndCommitPositionsShareOneAxis) {
  // b commits first (seq 3) without a timestamp; a carries commit stamp 1
  // (a hybrid update), so a serializes before b despite committing later.
  History h = hist({
      invoke(X, B, op("insert", 1)),
      respond(X, B, ok()),
      commit(X, B),  // first commit: seq 3
      invoke(X, A, op("insert", 2)),
      respond(X, A, ok()),
      commit_at(X, A, 1),
  });
  const auto order = canonical_order(h);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], A);
  EXPECT_EQ(order[1], B);
}

TEST(CanonicalOrder, UncommittedActivitiesAreExcluded) {
  History h = hist({
      invoke(X, B, op("insert", 1)),
      respond(X, B, ok()),
      abort(X, B),
      invoke(X, A, op("member", 1)),
      respond(X, A, Value{false}),
      commit(X, A),
  });
  const auto order = canonical_order(h);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], A);
}

TEST(ConflictRelationTest, ClassifiesSetOperationPairs) {
  const auto sys = one_set();
  ConflictRelation rel(sys);
  // Different elements never interact.
  EXPECT_EQ(rel.classify(X, op("insert", 1), op("member", 2)),
            PairCommutativity::kAlways);
  // Same element: insert(1) changes member(1)'s answer.
  EXPECT_NE(rel.classify(X, op("insert", 1), op("member", 1)),
            PairCommutativity::kAlways);
  EXPECT_TRUE(rel.conflicts(X, op("insert", 1), op("member", 1)));
  // Symmetric and memoized: the reverse query hits the cache.
  const auto probes_before = rel.probes();
  EXPECT_TRUE(rel.conflicts(X, op("member", 1), op("insert", 1)));
  EXPECT_EQ(rel.probes(), probes_before);
}

TEST(ConflictRelationTest, BagInsertRemoveIsDataDependent) {
  SystemSpec sys;
  sys.add_object(X, "bag");
  ConflictRelation rel(sys);
  // The paper's data-dependent fragment: two bag removes (or an insert
  // against a remove) commute in some states only.
  EXPECT_EQ(rel.classify(X, op("insert", 1), op("remove")),
            PairCommutativity::kStateDependent);
  EXPECT_TRUE(rel.data_dependent(X, op("remove"), op("remove")));
}

TEST(ConflictRelationTest, DepositsAlwaysCommuteButIncrementsConflict) {
  SystemSpec sys;
  sys.add_object(X, "bank_account");
  sys.add_object(Y, "counter");
  ConflictRelation rel(sys);
  EXPECT_EQ(rel.classify(X, op("deposit", 1), op("deposit", 2)),
            PairCommutativity::kAlways);
  // The optimality object's increment returns the running count, so two
  // increments never commute — their results expose the order.
  EXPECT_NE(rel.classify(Y, op("increment"), op("increment")),
            PairCommutativity::kAlways);
}

TEST(VcChecker, CleanTraceCertifiesOnTheFastPath) {
  const auto sys = one_set();
  History h = hist({
      invoke(X, B, op("insert", 3)),
      respond(X, B, ok()),
      commit(X, B),
      invoke(X, A, op("member", 3)),
      respond(X, A, Value{true}),
      commit(X, A),
  });
  for (const std::size_t window : {std::size_t{0}, std::size_t{2}}) {
    const VcReport report = check_vc_atomic(sys, h, {}, window);
    EXPECT_EQ(report.verdict, VcVerdict::kPass) << "window " << window;
    EXPECT_EQ(report.stats.certified, 2u);
    EXPECT_EQ(report.stats.folds, 2u);
    EXPECT_EQ(report.stats.escalations, 0u);
    EXPECT_EQ(report.stats.violations, 0u);
  }
}

TEST(VcChecker, StaleReadIsAViolationUnderEscalation) {
  const auto sys = one_set();
  // b's insert(3) commits before a, yet a observed member(3)=false: not
  // serializable in canonical (first-commit) order.
  History h = hist({
      invoke(X, B, op("insert", 3)),
      respond(X, B, ok()),
      invoke(X, A, op("member", 3)),
      respond(X, A, Value{false}),
      commit(X, B),
      commit(X, A),
  });
  ASSERT_FALSE(check_canonical_atomic(sys, h).ok);
  for (const std::size_t window : {std::size_t{0}, std::size_t{2}}) {
    const VcReport esc = check_vc_atomic(sys, h, {}, window);
    EXPECT_EQ(esc.verdict, VcVerdict::kViolation) << "window " << window;
    ASSERT_FALSE(esc.reports.empty());
    EXPECT_NE(esc.reports.front().find("not serializable"),
              std::string::npos);

    // Without escalation the fast path must not PASS it either; it
    // quarantines the suspect and stays honest about the unresolved
    // verdict.
    VcCheckerOptions vc_only;
    vc_only.escalate = false;
    const VcReport vc = check_vc_atomic(sys, h, vc_only, window);
    EXPECT_NE(vc.verdict, VcVerdict::kPass) << "window " << window;
  }
}

TEST(VcChecker, CommutingSwapCertifiesWithoutEscalation) {
  // Hybrid-style commit stamps invert the fold order (b folds first with
  // key 2, then a with key 1), but deposits always commute: the fast
  // path certifies without any escalation.
  SystemSpec sys;
  sys.add_object(X, "bank_account");
  History h = hist({
      invoke(X, B, op("deposit", 5)),
      respond(X, B, ok()),
      invoke(X, A, op("deposit", 3)),
      respond(X, A, ok()),
      commit_at(X, B, 2),
      commit_at(X, A, 1),
  });
  const VcReport report = check_vc_atomic(sys, h, {}, 2);
  EXPECT_EQ(report.verdict, VcVerdict::kPass);
  EXPECT_EQ(report.stats.certified, 2u);
  EXPECT_EQ(report.stats.escalations, 0u);
}

TEST(VcChecker, ConflictingSwapEscalatesAndResolves) {
  // The same inversion with a real conflict: member(3) folds before the
  // insert it canonically precedes. The mis-ordered conflict is
  // suspicious; escalation re-replays canonically (a then b) and
  // certifies both.
  const auto sys = one_set();
  History h = hist({
      invoke(X, B, op("insert", 3)),
      respond(X, B, ok()),
      invoke(X, A, op("member", 3)),
      respond(X, A, Value{false}),
      commit_at(X, B, 2),
      commit_at(X, A, 1),
  });
  ASSERT_TRUE(check_canonical_atomic(sys, h).ok);
  const VcReport esc = check_vc_atomic(sys, h, {}, 0);
  EXPECT_EQ(esc.verdict, VcVerdict::kPass);
  EXPECT_EQ(esc.stats.escalations, 1u);
  EXPECT_GE(esc.stats.suspicious, 1u);
  EXPECT_EQ(esc.stats.certified, 2u);

  // The monitoring-only mode quarantines instead: no PASS claim.
  VcCheckerOptions vc_only;
  vc_only.escalate = false;
  const VcReport vc = check_vc_atomic(sys, h, vc_only, 0);
  EXPECT_EQ(vc.verdict, VcVerdict::kSuspicious);
  EXPECT_GE(vc.stats.unresolved, 1u);
  EXPECT_EQ(vc.stats.violations, 0u);
}

TEST(VcChecker, StragglerBelowTheCheckpointIsQuarantined) {
  const auto sys = one_set();
  VcCheckerOptions options;
  options.checkpoint_threshold = 1;  // seal at the first window
  VectorClockChecker checker(sys, options);
  Feeder feed(checker);
  feed({1, invoke(X, B, op("insert", 5))});
  feed({2, respond(X, B, ok())});
  feed({3, commit(X, B)});
  checker.advance_frontier(100);  // seals the epoch; checkpoint key 3
  ASSERT_EQ(checker.stats().checkpoints, 1u);

  // a commits with stamp 2 — below the sealed prefix — and its member(5)
  // conflicts with the sealed insert(5): quarantined, counted, never a
  // violation.
  feed({4, invoke(X, A, op("member", 5))});
  feed({5, respond(X, A, Value{false})});
  feed({6, commit_at(X, A, 2)});
  checker.finish();
  EXPECT_EQ(checker.stats().stragglers, 1u);
  EXPECT_EQ(checker.stats().violations, 0u);
  EXPECT_EQ(checker.verdict(), VcVerdict::kSuspicious);
}

TEST(VcChecker, CommutingStragglerIsFoldedInPlace) {
  SystemSpec sys;
  sys.add_object(X, "bank_account");
  VcCheckerOptions options;
  options.checkpoint_threshold = 1;
  VectorClockChecker checker(sys, options);
  Feeder feed(checker);
  feed({1, invoke(X, B, op("deposit", 5))});
  feed({2, respond(X, B, ok())});
  feed({3, commit(X, B)});
  checker.advance_frontier(100);
  ASSERT_EQ(checker.stats().checkpoints, 1u);

  // a arrives below the checkpoint, but its deposit always-commutes with
  // the sealed deposit: folded by commutation, verdict stays PASS.
  feed({4, invoke(X, A, op("deposit", 3))});
  feed({5, respond(X, A, ok())});
  feed({6, commit_at(X, A, 2)});
  checker.finish();
  EXPECT_EQ(checker.stats().stragglers, 0u);
  EXPECT_EQ(checker.stats().straggler_resolved, 1u);
  EXPECT_EQ(checker.verdict(), VcVerdict::kPass);
  EXPECT_EQ(checker.stats().certified, 2u);
}

TEST(VcChecker, AbortedActivityImposesNoConstraint) {
  const auto sys = one_set();
  History h = hist({
      invoke(X, B, op("insert", 3)),
      respond(X, B, ok()),
      abort(X, B),
      invoke(X, A, op("member", 3)),
      respond(X, A, Value{false}),
      commit(X, A),
  });
  const VcReport report = check_vc_atomic(sys, h, {}, 2);
  EXPECT_EQ(report.verdict, VcVerdict::kPass);
  EXPECT_EQ(report.stats.certified, 1u);
}

TEST(VcChecker, OpenInitiationHoldsTheFrontier) {
  // r initiates at stamp 1 and stays open while b folds at key 5: b's
  // certificate must stay provisional until r resolves. r then commits
  // reading the pre-b state — consistent with its stamp — and both
  // certify.
  const auto sys = one_set();
  VectorClockChecker checker(sys, {});
  Feeder feed(checker);
  feed({1, initiate(X, R, 1)});
  feed({2, invoke(X, B, op("insert", 7))});
  feed({3, respond(X, B, ok())});
  feed({4, commit(X, B)});
  checker.advance_frontier(4);  // frontier clamps to the open initiation
  feed({5, invoke(X, R, op("member", 7))});
  feed({6, respond(X, R, Value{false})});
  feed({7, commit(X, R)});
  checker.finish();
  EXPECT_EQ(checker.verdict(), VcVerdict::kPass) << checker.last_suspicion();
  EXPECT_EQ(checker.stats().certified, 2u);
  EXPECT_EQ(checker.stats().violations, 0u);
}

}  // namespace
}  // namespace argus
