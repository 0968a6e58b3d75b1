//===- tests/core/CnfTest.cpp ---------------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/ClausalForm.h"
#include "sl/Parser.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::core;

namespace {

class CnfTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};

  sl::Entailment parse(const char *S) {
    sl::ParseResult R = sl::parseEntailment(Terms, S);
    EXPECT_TRUE(R.ok());
    return *R.Value;
  }
};

} // namespace

TEST_F(CnfTest, PaperExampleShape) {
  // cnf(E) of the §2 example has exactly the three clauses (1)-(3).
  ClausalForm CF = cnf(parse("c != e & lseg(a, b) * lseg(a, c) * "
                             "next(c, d) * lseg(d, e) |- lseg(b, c) * "
                             "lseg(c, e)"));
  // (1) c ' e -> [].
  ASSERT_EQ(CF.PureClauses.size(), 1u);
  EXPECT_EQ(CF.PureClauses[0].Neg.size(), 1u);
  EXPECT_TRUE(CF.PureClauses[0].Pos.empty());
  // (2) [] -> Σ with four atoms.
  EXPECT_EQ(CF.PosSigma.Sigma.size(), 4u);
  EXPECT_TRUE(CF.PosSigma.Neg.empty());
  EXPECT_TRUE(CF.PosSigma.Pos.empty());
  // (3) Σ' -> [] with two atoms and no pure part.
  EXPECT_EQ(CF.NegSigma.Sigma.size(), 2u);
  EXPECT_TRUE(CF.NegSigma.Neg.empty());
  EXPECT_TRUE(CF.NegSigma.Pos.empty());
}

TEST_F(CnfTest, RhsPureLiteralsSplitBySign) {
  ClausalForm CF = cnf(parse("emp |- x = y & z != w & emp"));
  // Positive RHS atoms land on the left of the last clause (Π'+),
  // negated ones on the right (Π'−).
  EXPECT_EQ(CF.NegSigma.Neg.size(), 1u);
  EXPECT_EQ(CF.NegSigma.Pos.size(), 1u);
}

TEST_F(CnfTest, LhsLiteralsBecomeUnitClauses) {
  ClausalForm CF = cnf(parse("x = y & z != w & emp |- emp"));
  ASSERT_EQ(CF.PureClauses.size(), 2u);
  // x = y asserted positively.
  EXPECT_EQ(CF.PureClauses[0].Pos.size(), 1u);
  EXPECT_TRUE(CF.PureClauses[0].Neg.empty());
  // z != w asserted as z ' w -> [].
  EXPECT_EQ(CF.PureClauses[1].Neg.size(), 1u);
  EXPECT_TRUE(CF.PureClauses[1].Pos.empty());
}

TEST_F(CnfTest, LabelsArePresent) {
  ClausalForm CF = cnf(parse("x = y & emp |- emp"));
  ASSERT_EQ(CF.PureClauses.size(), 1u);
  EXPECT_EQ(CF.PureClauses[0].Rule, InputRule::Cnf);
}
