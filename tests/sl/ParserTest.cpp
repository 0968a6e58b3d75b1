//===- tests/sl/ParserTest.cpp -------------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "sl/Parser.h"

#include "engine/BatchProver.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::sl;

namespace {

/// How far a corpus parsed: the entailments before the first bad line,
/// and that line's diagnostic.
struct CorpusParse {
  size_t Parsed = 0;
  std::optional<ParseError> Error;

  bool ok() const { return !Error; }
};

/// Reads a corpus the way the tools do: splitCorpus drops blank and
/// comment-only lines, each query line parses on its own, and a
/// diagnostic is anchored to the corpus line splitCorpus reports.
CorpusParse parseCorpus(TermTable &Terms, std::string_view Text) {
  std::vector<unsigned> LineNos;
  std::vector<std::string> Lines =
      engine::BatchProver::splitCorpus(Text, &LineNos);
  CorpusParse Out;
  for (size_t I = 0; I != Lines.size(); ++I) {
    ParseResult R = parseEntailment(Terms, Lines[I]);
    if (!R.ok()) {
      Out.Error = R.Error;
      Out.Error->Line = LineNos[I];
      break;
    }
    ++Out.Parsed;
  }
  return Out;
}

class ParserTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};

  Entailment parse(const char *S) {
    ParseResult R = parseEntailment(Terms, S);
    EXPECT_TRUE(R.ok()) << (R.Error ? R.Error->render() : "");
    return R.ok() ? *R.Value : Entailment{};
  }
};

} // namespace

TEST_F(ParserTest, SimpleEntailment) {
  Entailment E = parse("x != y & lseg(x, y) |- lseg(x, y)");
  ASSERT_EQ(E.Lhs.Pure.size(), 1u);
  EXPECT_TRUE(E.Lhs.Pure[0].Negated);
  ASSERT_EQ(E.Lhs.Spatial.size(), 1u);
  EXPECT_TRUE(E.Lhs.Spatial[0].isLseg());
  ASSERT_EQ(E.Rhs.Spatial.size(), 1u);
}

TEST_F(ParserTest, ArrowSugarForNext) {
  Entailment E = parse("x -> y |- next(x, y)");
  ASSERT_EQ(E.Lhs.Spatial.size(), 1u);
  EXPECT_TRUE(E.Lhs.Spatial[0].isNext());
  EXPECT_EQ(E.Lhs.Spatial[0], E.Rhs.Spatial[0]);
}

TEST_F(ParserTest, StarAndAmpInterchangeable) {
  Entailment E = parse("x = y * next(x, z) & next(z, w) |- emp");
  EXPECT_EQ(E.Lhs.Pure.size(), 1u);
  EXPECT_EQ(E.Lhs.Spatial.size(), 2u);
  EXPECT_TRUE(E.Rhs.Spatial.empty());
}

TEST_F(ParserTest, TrueAndEmp) {
  Entailment E = parse("true |- emp");
  EXPECT_TRUE(E.Lhs.Pure.empty());
  EXPECT_TRUE(E.Lhs.Spatial.empty());
  EXPECT_TRUE(E.Rhs.Spatial.empty());
}

TEST_F(ParserTest, FalseOnRhs) {
  Entailment E = parse("next(x, y) |- false");
  ASSERT_EQ(E.Rhs.Pure.size(), 1u);
  EXPECT_TRUE(E.Rhs.Pure[0].Negated);
  EXPECT_TRUE(E.Rhs.Pure[0].Lhs.isNil());
}

TEST_F(ParserTest, NilIsSharedConstant) {
  Entailment E = parse("x = nil |- lseg(x, nil)");
  EXPECT_TRUE(E.Lhs.Pure[0].Rhs.isNil());
  EXPECT_TRUE(E.Rhs.Spatial[0].Val.isNil());
}

TEST_F(ParserTest, DoubleEqualsAccepted) {
  Entailment E = parse("x == y & emp |- x = y & emp");
  EXPECT_FALSE(E.Lhs.Pure[0].Negated);
}

TEST_F(ParserTest, RoundTripThroughPrinter) {
  const char *Inputs[] = {
      "x != y & lseg(x, y) * next(y, z) |- lseg(x, z)",
      "x = nil & emp |- lseg(x, x)",
      "next(a, b) * next(b, c) * lseg(c, nil) |- lseg(a, nil)",
  };
  for (const char *In : Inputs) {
    Entailment E1 = parse(In);
    std::string Printed = str(Terms, E1);
    Entailment E2 = parse(Printed.c_str());
    EXPECT_EQ(str(Terms, E2), Printed) << "printer must be stable";
  }
}

TEST_F(ParserTest, FileWithCommentsAndBlanks) {
  CorpusParse R = parseCorpus(Terms, "# header comment\n"
                                     "\n"
                                     "x -> y |- lseg(x, y)\n"
                                     "  // indented comment\n"
                                     "emp |- emp\n");
  ASSERT_TRUE(R.ok()) << R.Error->render();
  EXPECT_EQ(R.Parsed, 2u);
}

TEST_F(ParserTest, ErrorMissingTurnstile) {
  ParseResult R = parseEntailment(Terms, "x = y & emp");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error->Message.find("|-"), std::string::npos);
}

TEST_F(ParserTest, ErrorBadAtom) {
  ParseResult R = parseEntailment(Terms, "lseg(x |- emp");
  ASSERT_FALSE(R.ok());
}

TEST_F(ParserTest, ErrorTrailingGarbage) {
  ParseResult R = parseEntailment(Terms, "emp |- emp emp");
  ASSERT_FALSE(R.ok());
}

TEST_F(ParserTest, ErrorFalseOnLhsRejected) {
  ParseResult R = parseEntailment(Terms, "false |- emp");
  ASSERT_FALSE(R.ok());
}

TEST_F(ParserTest, FileErrorReportsLine) {
  CorpusParse R = parseCorpus(Terms, "emp |- emp\nnot an entailment\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error->Line, 2u);
}

TEST_F(ParserTest, UnknownCharacterIsNamedWithPosition) {
  // The lexer must not translate garbage into "end of input": the
  // offending character is reported by name at its real position.
  ParseResult R = parseEntailment(Terms, "emp |- $y");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error->Message.find("unrecognized character '$'"),
            std::string::npos)
      << R.Error->render();
  EXPECT_EQ(R.Error->Line, 1u);
  EXPECT_EQ(R.Error->Column, 8u);
}

TEST_F(ParserTest, UnknownCharacterAfterValidPrefix) {
  ParseResult R = parseEntailment(Terms, "x = y |- x = y ; trailing");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error->Message.find("unrecognized character ';'"),
            std::string::npos)
      << R.Error->render();
  EXPECT_EQ(R.Error->Column, 16u);
}

TEST_F(ParserTest, UnknownCharacterLocationWithCrlfAndComments) {
  // CRLF line endings, comment lines of both flavors, and an error on
  // the fourth line: the diagnostic carries the exact line and column.
  CorpusParse R = parseCorpus(
      Terms, "# leading comment\r\n"
             "emp |- emp\r\n"
             "// another comment\r\n"
             "x -> y |- @lseg(x, y)\r\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error->Message.find("unrecognized character '@'"),
            std::string::npos)
      << R.Error->render();
  EXPECT_EQ(R.Error->Line, 4u);
  EXPECT_EQ(R.Error->Column, 11u);
}

TEST_F(ParserTest, ErrorColumnCountsTabsAsSingleColumns) {
  // Each tab advances the column by one (no tab expansion), so the
  // '%' after "\t\temp |- " sits at column 10.
  CorpusParse R = parseCorpus(Terms, "emp |- emp\n\t\temp |- %\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error->Message.find("unrecognized character '%'"),
            std::string::npos)
      << R.Error->render();
  EXPECT_EQ(R.Error->Line, 2u);
  EXPECT_EQ(R.Error->Column, 10u);
}

TEST_F(ParserTest, NonPrintableGarbageIsHexEscaped) {
  // A UTF-8 lead byte (or any non-printable byte) must not be embedded
  // raw in the diagnostic; it is rendered as a hex escape.
  ParseResult R = parseEntailment(Terms, "emp |- \xC3\xA9");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error->Message.find("unrecognized character '\\xC3'"),
            std::string::npos)
      << R.Error->render();
  EXPECT_EQ(R.Error->Column, 8u);
}

TEST_F(ParserTest, NonLexicalErrorStillReportsExactLocation) {
  // A grammar (not lexer) error in a multi-line CRLF file: the
  // missing ')' is reported where the ',' was expected.
  CorpusParse R = parseCorpus(
      Terms, "# header\r\n"
             "lseg(x y) |- emp\r\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error->Message.find("','"), std::string::npos)
      << R.Error->render();
  EXPECT_EQ(R.Error->Line, 2u);
  EXPECT_EQ(R.Error->Column, 8u);
}
