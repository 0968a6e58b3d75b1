//===- tests/term/RewriteTest.cpp ---------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "term/Rewrite.h"

#include <gtest/gtest.h>

using namespace slp;

namespace {

class RewriteTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
};

} // namespace

TEST_F(RewriteTest, EmptySystemIsIdentity) {
  GroundRewriteSystem R;
  Symbol A = Terms.constant("a");
  EXPECT_EQ(R.normalize(A), A);
  EXPECT_TRUE(R.equivalent(A, A));
  EXPECT_FALSE(R.equivalent(A, Terms.constant("b")));
}

TEST_F(RewriteTest, ChainsFollowToNormalForm) {
  GroundRewriteSystem R;
  Symbol A = Terms.constant("a");
  Symbol B = Terms.constant("b");
  Symbol C = Terms.constant("c");
  R.addRule(C, B, 1);
  R.addRule(B, A, 2);
  EXPECT_EQ(R.normalize(C), A);
  EXPECT_EQ(R.normalize(B), A);
  EXPECT_TRUE(R.equivalent(B, C));
}

TEST_F(RewriteTest, InnermostRootCascades) {
  // Terms are constants, so every step is at the root: with b -> a
  // added before c -> b, normalizing c cascades through both rules.
  GroundRewriteSystem R;
  Symbol A = Terms.constant("a");
  Symbol B = Terms.constant("b");
  Symbol C = Terms.constant("c");
  R.addRule(B, A, 1);
  EXPECT_EQ(R.normalize(B), A);
  R.addRule(C, B, 2);
  EXPECT_EQ(R.normalize(C), A);
  std::vector<const RewriteRule *> Used;
  EXPECT_EQ(R.normalizeTracked(C, Used), A);
  ASSERT_EQ(Used.size(), 2u);
  EXPECT_EQ(Used[0]->GeneratingClause, 2u);
  EXPECT_EQ(Used[1]->GeneratingClause, 1u);
}

TEST_F(RewriteTest, TrackedNormalizationReportsRules) {
  GroundRewriteSystem R;
  Symbol A = Terms.constant("a");
  Symbol B = Terms.constant("b");
  Symbol C = Terms.constant("c");
  R.addRule(C, B, 11);
  R.addRule(B, A, 22);
  std::vector<const RewriteRule *> Used;
  EXPECT_EQ(R.normalizeTracked(C, Used), A);
  ASSERT_EQ(Used.size(), 2u);
  EXPECT_EQ(Used[0]->GeneratingClause, 11u);
  EXPECT_EQ(Used[1]->GeneratingClause, 22u);
}

TEST_F(RewriteTest, CacheInvalidatedByNewRules) {
  GroundRewriteSystem R;
  Symbol A = Terms.constant("a");
  Symbol B = Terms.constant("b");
  Symbol C = Terms.constant("c");
  R.addRule(C, B, 1);
  EXPECT_EQ(R.normalize(C), B); // Caches c -> b.
  R.addRule(B, A, 2);
  EXPECT_EQ(R.normalize(C), A); // Must see the new rule.
}

TEST_F(RewriteTest, CacheRepairAcrossAddRuleIsCounted) {
  GroundRewriteSystem R;
  Symbol A = Terms.constant("a");
  Symbol B = Terms.constant("b");
  Symbol C = Terms.constant("c");
  R.addRule(C, B, 1);
  EXPECT_EQ(R.normalize(C), B); // Memoized under one rule.
  EXPECT_EQ(R.cacheReuse(), 0u);
  R.addRule(B, A, 2);
  // The stale entry is a valid reduct: normalization resumes from it
  // instead of recomputing, and still sees the new rule.
  EXPECT_EQ(R.normalize(C), A);
  EXPECT_GT(R.cacheReuse(), 0u);
}

TEST_F(RewriteTest, TruncateToRewindsRulesAndMemo) {
  GroundRewriteSystem R;
  Symbol A = Terms.constant("a");
  Symbol B = Terms.constant("b");
  Symbol C = Terms.constant("c");
  Symbol D = Terms.constant("d");
  R.addRule(D, C, 1);
  R.addRule(C, B, 2);
  R.addRule(B, A, 3);
  EXPECT_EQ(R.normalize(D), A); // Warm the memo under three rules.

  R.truncateTo(1);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_TRUE((R.rules()[0] == RewriteRule{D, C, 1}));
  EXPECT_EQ(R.ruleFor(C), nullptr);
  EXPECT_EQ(R.ruleFor(B), nullptr);
  // Post-watermark memo entries are gone; the rewound system behaves
  // like one that only ever saw the kept prefix.
  EXPECT_EQ(R.normalize(D), C);
  EXPECT_EQ(R.normalize(C), C);
  EXPECT_EQ(R.normalize(B), B);

  // Replaying different rules after the rewind works.
  R.addRule(C, A, 4);
  EXPECT_EQ(R.normalize(D), A);
  ASSERT_NE(R.ruleFor(C), nullptr);
  EXPECT_EQ(R.ruleFor(C)->Rhs, A);

  R.truncateTo(0);
  EXPECT_TRUE(R.empty());
  EXPECT_EQ(R.normalize(D), D);
}

TEST_F(RewriteTest, RuleLookup) {
  GroundRewriteSystem R;
  Symbol A = Terms.constant("a");
  Symbol B = Terms.constant("b");
  EXPECT_FALSE(R.reducibleAtRoot(B));
  R.addRule(B, A, 5);
  EXPECT_TRUE(R.reducibleAtRoot(B));
  ASSERT_NE(R.ruleFor(B), nullptr);
  EXPECT_EQ(R.ruleFor(B)->Rhs, A);
  EXPECT_EQ(R.ruleFor(A), nullptr);
  EXPECT_EQ(R.size(), 1u);
}
