//===- tests/analysis/LintTest.cpp ----------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the slp-lint rule engine (analysis::lintCorpus): one case
/// per diagnostic code, the label-suppression and --generated demotion
/// semantics, JSON output, and cleanliness of the shipped regression
/// corpus.
///
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace slp;
using namespace slp::analysis;

namespace {

/// Runs the linter over \p Text and returns the report.
LintReport lint(const std::string &Text, const LintOptions &Opts = {}) {
  return lintCorpus("test.slp", Text, Opts);
}

/// True iff some diagnostic carries \p Code.
bool has(const LintReport &R, LintCode Code) {
  for (const LintDiagnostic &D : R.Diags)
    if (D.Code == Code)
      return true;
  return false;
}

} // namespace

TEST(LintTest, CleanCorpusHasNoFindings) {
  LintReport R = lint("x != z & lseg(x, y) * lseg(y, z) |- lseg(x, z)\n");
  EXPECT_TRUE(R.Diags.empty());
  EXPECT_EQ(R.Queries, 1u);
}

TEST(LintTest, ParseErrorIsE001WithPosition) {
  LintReport R = lint("# a comment\nnext(x |- y\n");
  ASSERT_EQ(R.Diags.size(), 1u);
  EXPECT_EQ(R.Diags[0].Code, LintCode::ParseError);
  EXPECT_EQ(R.Diags[0].Severity, LintSeverity::Error);
  EXPECT_EQ(R.Diags[0].Line, 2u);
  EXPECT_GT(R.Diags[0].Col, 1u);
}

TEST(LintTest, LabelMismatchIsE002) {
  LintReport R = lint("# expect: invalid\nx = y & x != y |- true\n");
  ASSERT_TRUE(has(R, LintCode::ExpectMismatch));
  EXPECT_EQ(R.errors(), 1u);
  EXPECT_EQ(R.Labeled, 1u);
}

TEST(LintTest, CorrectLabelIsClean) {
  LintReport R = lint("# expect: valid\nx = y & x != y |- true\n"
                      "# expect: invalid\ntrue |- x = y\n");
  EXPECT_TRUE(R.Diags.empty()) << R.Diags[0].render();
  EXPECT_EQ(R.Labeled, 2u);
  // Only the Valid query is decided statically; the invalid one is
  // left to the prover.
  EXPECT_EQ(R.Definitive, 1u);
}

TEST(LintTest, SameLineLabelIsHonored) {
  LintReport R = lint("x = y & x != y |- true  # expect: valid\n");
  EXPECT_TRUE(R.Diags.empty());
  EXPECT_EQ(R.Labeled, 1u);
}

TEST(LintTest, ContradictoryAntecedentIsW001) {
  LintReport R = lint("x = y & x != y |- lseg(a, b)\n");
  EXPECT_TRUE(has(R, LintCode::ContradictoryAntecedent));
  EXPECT_GE(R.warnings(), 1u);
}

TEST(LintTest, DuplicateSpatialAtomIsW002) {
  LintReport R = lint("next(x, y) * next(x, y) |- true\n");
  EXPECT_TRUE(has(R, LintCode::DuplicateSpatialAtom));
}

TEST(LintTest, TriviallyValidIsW003) {
  LintReport R = lint("next(x, y) |- next(x, y)\n");
  EXPECT_TRUE(has(R, LintCode::TriviallyValid));
}

TEST(LintTest, UnusedVariableIsW004AndAnchored) {
  LintReport R = lint("x != y & next(x, y) |- lseg(x, z)\n");
  ASSERT_TRUE(has(R, LintCode::UnusedVariable));
  for (const LintDiagnostic &D : R.Diags)
    if (D.Code == LintCode::UnusedVariable) {
      // 'z' first appears at this column (1-based).
      EXPECT_EQ(D.Col, 32u) << D.render();
      EXPECT_NE(D.Message.find("'z'"), std::string::npos);
    }
}

TEST(LintTest, UnusedVariableWarningsFollowSourceOrder) {
  // A ring of disequalities over 97 of v0..v99; v10, v50 and v90 each
  // sit once at their place in it, as `vI != nil`.
  auto IsUnused = [](int I) { return I == 10 || I == 50 || I == 90; };
  std::string Line;
  for (int I = 0; I != 100; ++I) {
    int Next = (I + 1) % 100;
    while (IsUnused(Next))
      Next = (Next + 1) % 100;
    Line += (I ? " & v" : "v") + std::to_string(I) + " != " +
            (IsUnused(I) ? "nil" : "v" + std::to_string(Next));
  }
  LintReport R = lint(Line + " |- true\n");
  std::vector<std::string> Names;
  unsigned LastCol = 0;
  for (const LintDiagnostic &D : R.Diags) {
    if (D.Code != LintCode::UnusedVariable)
      continue;
    EXPECT_GT(D.Col, LastCol) << D.render();
    LastCol = D.Col;
    Names.push_back(D.Message.substr(D.Message.find('\'')));
  }
  EXPECT_EQ(Names, (std::vector<std::string>{
                       "'v10' occurs only once (constrains nothing)",
                       "'v50' occurs only once (constrains nothing)",
                       "'v90' occurs only once (constrains nothing)"}));
}

TEST(LintTest, IllFormedSigmaIsW005) {
  LintReport NilAddr = lint("x != y & lseg(nil, x) |- true\n");
  EXPECT_TRUE(has(NilAddr, LintCode::IllFormedSigma));
  LintReport Aliased = lint("next(x, y) * next(x, z) |- true\n");
  EXPECT_TRUE(has(Aliased, LintCode::IllFormedSigma));
}

TEST(LintTest, LabelSuppressesAdvisoryRules) {
  // The same contradictory antecedent, but labeled: it is a test
  // vector, so only the label is checked.
  LintReport R = lint("# expect: valid\nx = y & x != y |- lseg(a, b)\n");
  EXPECT_TRUE(R.Diags.empty());
}

TEST(LintTest, GeneratedDemotesWarningsToNotes) {
  LintOptions Opts;
  Opts.Generated = true;
  LintReport R = lint("x = y & x != y |- lseg(a, b)\n", Opts);
  EXPECT_FALSE(R.Diags.empty());
  EXPECT_EQ(R.warnings(), 0u);
  EXPECT_GE(R.count(LintSeverity::Note), 1u);
  // Errors are not demoted.
  LintReport E = lint("garbage |-\n", Opts);
  EXPECT_EQ(E.errors(), 1u);
}

TEST(LintTest, ExpectAllTreatsEveryQueryAsLabeled) {
  LintOptions Opts;
  Opts.ExpectAll = ExpectedVerdict::Valid;
  // A trivially valid query is not flagged as W003, since ExpectAll
  // marks it intentional.
  LintReport Good = lint("next(x, y) |- next(x, y)\n", Opts);
  EXPECT_TRUE(Good.Diags.empty());
}

TEST(LintTest, MergeAccumulates) {
  LintReport A = lint("true |- x = y\n");
  LintReport B = lint("next(x, y) * next(x, y) |- true\n");
  size_t Total = A.Diags.size() + B.Diags.size();
  A.merge(std::move(B));
  EXPECT_EQ(A.Diags.size(), Total);
  EXPECT_EQ(A.Queries, 2u);
}

TEST(LintTest, RenderFormatIsStable) {
  LintDiagnostic D{"f.slp", 3, 7, LintSeverity::Warning,
                   LintCode::TriviallyValid, "msg"};
  EXPECT_EQ(D.render(), "f.slp:3:7: warning: msg [SLP-W003]");
}

TEST(LintTest, JsonReportParsesAndCounts) {
  LintReport R = lint("next(x, y) * next(x, y) |- true\n"
                      "bad \"syntax\n");
  // A file name and message with every character JSON must escape.
  const std::string Odd = "a\"b\\c\td\re";
  R.Diags.push_back({Odd + ".slp", 1, 1, LintSeverity::Note,
                     LintCode::TriviallyValid, Odd});
  std::string Payload = reportJson(R);
  std::unique_ptr<test::Json> J = test::parseJson(Payload);
  ASSERT_NE(J, nullptr) << Payload;
  ASSERT_NE(J->get("diagnostics"), nullptr);
  EXPECT_EQ(J->get("diagnostics")->Arr.size(), R.Diags.size());
  EXPECT_EQ(static_cast<size_t>(J->get("queries")->Num), R.Queries);
  EXPECT_EQ(static_cast<size_t>(J->get("errors")->Num), R.errors());
  const test::Json &D0 = J->get("diagnostics")->Arr[0];
  EXPECT_NE(D0.get("file"), nullptr);
  EXPECT_NE(D0.get("code"), nullptr);
  const test::Json &Last = J->get("diagnostics")->Arr.back();
  EXPECT_EQ(Last.get("file")->Str, Odd + ".slp");
  EXPECT_EQ(Last.get("message")->Str, Odd);
}

TEST(LintTest, ShippedRegressionCorpusIsClean) {
  std::ifstream In = test::openRegressionCorpus();
  ASSERT_TRUE(In) << "data/regression.slp not found";
  std::ostringstream SS;
  SS << In.rdbuf();
  LintReport R = lintCorpus("data/regression.slp", SS.str());
  for (const LintDiagnostic &D : R.Diags)
    ADD_FAILURE() << D.render();
  EXPECT_EQ(R.errors(), 0u);
  EXPECT_EQ(R.warnings(), 0u);
}
