//===- tests/cli/ModelCliTest.cpp ---------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// `slp --model` end to end: every countermodel it prints for the
/// regression corpus, read back from stdout, is a countermodel of its
/// query under sl::isCounterexample, with every constant of the query
/// bound, including those that occur only in atoms the canonical form
/// drops (x = x, lseg(x, x)).
///
//===----------------------------------------------------------------------===//

#include "sl/Parser.h"
#include "sl/Semantics.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef SLP_CLI
#error "this test needs the slp binary's path (see CMakeLists.txt)"
#endif

using namespace slp;

namespace {

/// Runs `slp ARGS < Input` and returns its stdout.
std::string runSlp(const std::string &Args, const std::string &Input) {
  // One file per test: CTest may run the tests of this file at once.
  const std::string Path =
      ::testing::TempDir() + "model_cli_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".slp";
  std::ofstream(Path) << Input;
  const std::string Cmd = std::string(SLP_CLI) + " " + Args + " < " + Path;
  std::string Out;
  if (FILE *P = popen(Cmd.c_str(), "r")) {
    char Buf[4096];
    for (size_t N; (N = fread(Buf, 1, sizeof(Buf), P)) != 0;)
      Out.append(Buf, N);
    pclose(P);
  }
  std::remove(Path.c_str());
  return Out;
}

/// Reads "stack: x=1 y=2; heap: 1->3 3->2" (sl::str's rendering) back
/// into \p S and \p H over \p Terms.
void parseInterpretation(TermTable &Terms, const std::string &Text,
                         sl::Stack &S, sl::Heap &H) {
  const size_t Semi = Text.find(';');
  ASSERT_EQ(Text.rfind("stack:", 0), 0u) << Text;
  ASSERT_NE(Semi, std::string::npos) << Text;
  std::istringstream Stack(Text.substr(6, Semi - 6));
  for (std::string Tok; Stack >> Tok;) {
    const size_t Eq = Tok.rfind('=');
    S.bind(Terms.constant(Tok.substr(0, Eq)),
           static_cast<sl::Loc>(std::stoul(Tok.substr(Eq + 1))));
  }
  std::istringstream Heap(Text.substr(Text.find(':', Semi) + 1));
  for (std::string Tok; Heap >> Tok;)
    if (const size_t Arrow = Tok.find("->"); Arrow != std::string::npos)
      H.set(static_cast<sl::Loc>(std::stoul(Tok.substr(0, Arrow))),
            static_cast<sl::Loc>(std::stoul(Tok.substr(Arrow + 2))));
}

/// Checks every countermodel in `slp --model` output \p Out against the
/// query echoed above it; returns how many it checked.
unsigned checkCountermodels(const std::string &Out) {
  const std::string Tag = "  countermodel: ";
  std::istringstream Lines(Out);
  std::string Line, Query;
  unsigned Checked = 0;
  while (std::getline(Lines, Line)) {
    if (Line.rfind("[", 0) == 0) {
      Query = Line.substr(Line.find("] ") + 2);
      continue;
    }
    if (Line.rfind(Tag, 0) != 0)
      continue;
    SymbolTable Symbols;
    TermTable Terms(Symbols);
    sl::ParseResult P = sl::parseEntailment(Terms, Query);
    EXPECT_TRUE(P.ok()) << Query;
    if (!P.ok())
      continue;
    std::vector<Symbol> Constants;
    P.Value->collectTerms(Constants);
    sl::Stack S;
    sl::Heap H;
    parseInterpretation(Terms, Line.substr(Tag.size()), S, H);
    for (Symbol C : Constants)
      EXPECT_TRUE(S.bound(C)) << Terms.str(C) << " unbound in " << Line
                              << " for " << Query;
    EXPECT_TRUE(sl::isCounterexample(S, H, *P.Value)) << Query << "\n"
                                                      << Line;
    ++Checked;
  }
  return Checked;
}

} // namespace

TEST(ModelCli, DroppedConstantsGetFreshLocations) {
  // z occurs only in lseg(z, z), which the canonical form drops.
  const std::string Query = "lseg(z, z) * lseg(x, y) |- next(x, y)\n";
  const std::string Out = runSlp("--model", Query);
  EXPECT_NE(Out.find("invalid"), std::string::npos) << Out;
  EXPECT_NE(Out.find(" z="), std::string::npos) << Out;
  EXPECT_EQ(checkCountermodels(Out), 1u) << Out;
  // The portfolio prints a countermodel whichever member won the race:
  // when berdine wins, the slp prover supplies one.
  const std::string Port = runSlp("--model --backend=portfolio", Query);
  EXPECT_NE(Port.find("invalid"), std::string::npos) << Port;
  EXPECT_NE(Port.find(" z="), std::string::npos) << Port;
  EXPECT_EQ(checkCountermodels(Port), 1u) << Port;
}

TEST(ModelCli, EveryRegressionCountermodelIsACountermodel) {
  std::ifstream In(test::sourcePath("data/regression.slp"));
  ASSERT_TRUE(In) << "cannot open the regression corpus";
  std::stringstream Corpus;
  Corpus << In.rdbuf();
  EXPECT_GE(checkCountermodels(runSlp("--model", Corpus.str())), 35u);
  // Whichever member wins a race, every invalid verdict of the
  // portfolio comes with a countermodel too.
  EXPECT_GE(
      checkCountermodels(runSlp("--model --backend=portfolio", Corpus.str())),
      35u);
}
