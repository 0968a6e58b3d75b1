//===- tests/analysis/AnalyzerTest.cpp ------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the polynomial static pre-solver (analysis::analyze):
/// hand-picked cases for each rule family, no Invalid answer on any
/// of them, and soundness against the brute-force semantic oracle on
/// random entailments.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalyzer.h"

#include "gen/RandomEntailments.h"
#include "sl/Oracle.h"
#include "sl/Parser.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::analysis;

namespace {

class AnalyzerTest : public ::testing::Test {
protected:
  SymbolTable Syms;
  TermTable Terms{Syms};

  AnalysisResult analyzeText(const std::string &Text) {
    sl::ParseResult P = sl::parseEntailment(Terms, Text);
    EXPECT_TRUE(P.ok()) << Text;
    AnalysisResult A = analyze(Terms, *P.Value);
    // The analyzer answers Valid or Unknown, never Invalid.
    EXPECT_NE(A.V, core::Verdict::Invalid) << Text << ": " << A.Detail;
    return A;
  }
};

} // namespace

TEST_F(AnalyzerTest, PureContradictionIsVacuouslyValid) {
  AnalysisResult A = analyzeText("x = y & x != y |- lseg(a, b)");
  EXPECT_EQ(A.V, core::Verdict::Valid);
  EXPECT_EQ(A.R, Reason::PureContradiction);
}

TEST_F(AnalyzerTest, TransitiveContradiction) {
  AnalysisResult A = analyzeText("x = y & y = z & x != z |- true");
  EXPECT_EQ(A.V, core::Verdict::Valid);
  EXPECT_EQ(A.R, Reason::PureContradiction);
}

TEST_F(AnalyzerTest, W1NextAtNilContradicts) {
  AnalysisResult A = analyzeText("next(nil, x) |- true");
  EXPECT_EQ(A.V, core::Verdict::Valid);
  EXPECT_EQ(A.R, Reason::WfContradiction);
}

TEST_F(AnalyzerTest, W2LsegAtNilForcesEmptiness) {
  // lseg(nil, x) forces x = nil, contradicting x != nil.
  AnalysisResult A = analyzeText("x != nil & lseg(nil, x) |- true");
  EXPECT_EQ(A.V, core::Verdict::Valid);
  EXPECT_EQ(A.R, Reason::WfContradiction);
}

TEST_F(AnalyzerTest, W3AliasedNextsContradict) {
  AnalysisResult A = analyzeText("x = y & next(x, a) * next(y, b) |- true");
  EXPECT_EQ(A.V, core::Verdict::Valid);
  EXPECT_EQ(A.R, Reason::WfContradiction);
}

TEST_F(AnalyzerTest, W4NextForcesAliasedLsegEmpty) {
  // next(x, a) * lseg(x, b) forces b = x; x != b contradicts that.
  AnalysisResult A =
      analyzeText("x != b & next(x, a) * lseg(x, b) |- true");
  EXPECT_EQ(A.V, core::Verdict::Valid);
  EXPECT_EQ(A.R, Reason::WfContradiction);
}

TEST_F(AnalyzerTest, W5TwoNonEmptyAliasedLsegsContradict) {
  // Both lsegs definitely non-empty (distinct endpoints), same address.
  AnalysisResult A = analyzeText(
      "x != a & x != b & a != b & lseg(x, a) * lseg(x, b) |- true");
  EXPECT_EQ(A.V, core::Verdict::Valid);
  EXPECT_EQ(A.R, Reason::WfContradiction);
}

TEST_F(AnalyzerTest, DerivedDisequalityContradiction) {
  // next(x, y) forces x != nil.
  AnalysisResult A = analyzeText("x = nil & next(x, y) |- true");
  EXPECT_EQ(A.V, core::Verdict::Valid);
  EXPECT_EQ(A.R, Reason::WfContradiction);
}

TEST_F(AnalyzerTest, ExactSyntacticMatch) {
  AnalysisResult A =
      analyzeText("x != y & lseg(x, y) * next(y, z) |- lseg(x, y) * next(y, z)");
  EXPECT_EQ(A.V, core::Verdict::Valid);
  EXPECT_EQ(A.R, Reason::SyntacticMatch);
}

TEST_F(AnalyzerTest, MatchModuloClosureRewriting) {
  // a = x lets next(a, y) discharge next(x, y).
  AnalysisResult A = analyzeText("a = x & next(a, y) |- next(x, y)");
  EXPECT_EQ(A.V, core::Verdict::Valid);
  EXPECT_EQ(A.R, Reason::SyntacticMatch);
}

TEST_F(AnalyzerTest, TrivialLsegDropsFromBothSides) {
  AnalysisResult A = analyzeText("lseg(x, x) |- emp");
  EXPECT_EQ(A.V, core::Verdict::Valid);
  EXPECT_EQ(A.R, Reason::SyntacticMatch);
  AnalysisResult B = analyzeText("x = y & emp |- lseg(x, y)");
  EXPECT_EQ(B.V, core::Verdict::Valid);
  EXPECT_EQ(B.R, Reason::SyntacticMatch);
}

TEST_F(AnalyzerTest, NextWeakensToLsegUnderDisequality) {
  AnalysisResult A = analyzeText("x != y & next(x, y) |- lseg(x, y)");
  EXPECT_EQ(A.V, core::Verdict::Valid);
  EXPECT_EQ(A.R, Reason::SyntacticMatch);
}

// The three invalid near-misses below guard the matcher: it must not
// claim Valid for them. Refuting them is the full prover's job.
TEST_F(AnalyzerTest, NextWithoutDisequalityDoesNotWeaken) {
  // Without x != y the weakening is unsound (x = y makes the RHS
  // demand an empty heap).
  AnalysisResult A = analyzeText("next(x, y) |- lseg(x, y)");
  EXPECT_EQ(A.V, core::Verdict::Unknown);
  EXPECT_EQ(A.R, Reason::None);
}

TEST_F(AnalyzerTest, UnconstrainedEqualityIsRefuted) {
  // Refuted by the prover; the closure must not entail x = y.
  AnalysisResult A = analyzeText("true |- x = y");
  EXPECT_EQ(A.V, core::Verdict::Unknown);
  EXPECT_EQ(A.R, Reason::None);
}

TEST_F(AnalyzerTest, LsegDoesNotStrengthenToNext) {
  // A two-cell list segment defeats the single-cell RHS.
  AnalysisResult A = analyzeText("x != y & lseg(x, y) |- next(x, y)");
  EXPECT_EQ(A.V, core::Verdict::Unknown);
  EXPECT_EQ(A.R, Reason::None);
}

TEST_F(AnalyzerTest, GenuinelyHardQueriesStayUnknown) {
  // Valid, but needs an unfolding argument the matcher does not do.
  AnalysisResult A =
      analyzeText("x != z & lseg(x, y) * lseg(y, z) * next(z, w) |- "
                  "lseg(x, z) * next(z, w)");
  EXPECT_EQ(A.V, core::Verdict::Unknown);
}

// Soundness sweep: on small random instances of both paper
// distributions, every definitive analyzer verdict must agree with the
// exhaustive semantic oracle.
TEST_F(AnalyzerTest, SoundOnDistribution1) {
  SplitMix64 Rng(0x51Au);
  unsigned Decided = 0;
  for (int I = 0; I != 120; ++I) {
    sl::Entailment E = gen::distribution1(Terms, Rng, 4, 0.35, 0.35);
    AnalysisResult A = analyze(Terms, E);
    if (!A.definitive())
      continue;
    ++Decided;
    EXPECT_EQ(A.V == core::Verdict::Valid,
              sl::oracleSaysValid(Terms, E, /*ExtraLocations=*/1))
        << sl::str(Terms, E) << "\n  reason: " << reasonName(A.R) << ": "
        << A.Detail;
  }
  // The pre-solver must be pulling its weight on Table 1 instances.
  EXPECT_GE(Decided, 20u);
}

TEST_F(AnalyzerTest, SoundOnDistribution2) {
  SplitMix64 Rng(0xD152u);
  unsigned Decided = 0;
  for (int I = 0; I != 120; ++I) {
    sl::Entailment E = gen::distribution2(Terms, Rng, 4, 0.5);
    AnalysisResult A = analyze(Terms, E);
    if (!A.definitive())
      continue;
    ++Decided;
    EXPECT_EQ(A.V == core::Verdict::Valid,
              sl::oracleSaysValid(Terms, E, /*ExtraLocations=*/1))
        << sl::str(Terms, E) << "\n  reason: " << reasonName(A.R) << ": "
        << A.Detail;
  }
  EXPECT_GE(Decided, 5u);
}

