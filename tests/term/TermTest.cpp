//===- tests/term/TermTest.cpp ------------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "term/Term.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace slp;

namespace {

class TermTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
};

} // namespace

TEST_F(TermTest, NilIsSymbolZero) {
  EXPECT_EQ(SymbolTable::nil().id(), 0u);
  EXPECT_EQ(Symbols.name(SymbolTable::nil()), "nil");
  EXPECT_TRUE(Terms.nil().isNil());
}

TEST_F(TermTest, ConstantsAreInterned) {
  Symbol A1 = Terms.constant("a");
  Symbol A2 = Terms.constant("a");
  Symbol B = Terms.constant("b");
  EXPECT_EQ(A1, A2);
  EXPECT_NE(A1, B);
  EXPECT_EQ(Terms.str(A1), "a");
}

TEST_F(TermTest, IdsAreDense) {
  Symbol A = Terms.constant("a");
  Symbol B = Terms.constant("b");
  EXPECT_EQ(Terms.nil().id(), 0u);
  EXPECT_EQ(A.id(), 1u);
  EXPECT_EQ(B.id(), 2u);
  EXPECT_EQ(Terms.str(Symbol(1)), "a");
  EXPECT_EQ(Symbols.size(), 3u);
}

TEST_F(TermTest, ManyConstantsStayDistinct) {
  std::vector<Symbol> Cs;
  for (int I = 0; I != 500; ++I)
    Cs.push_back(Terms.constant("v" + std::to_string(I)));
  for (int I = 0; I != 500; ++I)
    EXPECT_EQ(Cs[I], Terms.constant("v" + std::to_string(I)));
  // The nil symbol always exists.
  EXPECT_EQ(Symbols.size(), 501u);
}

TEST_F(TermTest, MarkResetTruncatesTermsAndSymbols) {
  Symbol A = Terms.constant("a");
  TermTable::Mark M = Terms.mark();

  (void)Terms.constant("b");
  (void)Terms.constant("f");
  EXPECT_EQ(Symbols.size(), 4u);

  Terms.reset(M);
  EXPECT_EQ(Symbols.size(), 2u); // nil, a
  // Pre-mark constants survive with identity intact.
  EXPECT_TRUE(Terms.nil().isNil());
  EXPECT_EQ(Terms.constant("a"), A);
  // A dropped name comes back at the next dense id.
  EXPECT_EQ(Terms.constant("f").id(), 2u);
}

TEST_F(TermTest, ResetReassignsDenseIdsDeterministically) {
  TermTable::Mark M = Terms.mark();

  Symbol X1 = Terms.constant("x");
  Symbol Y1 = Terms.constant("y");

  Terms.reset(M);
  // Interning the same names again reproduces the same dense ids —
  // the property session reuse relies on for determinism.
  EXPECT_EQ(Terms.constant("x"), X1);
  EXPECT_EQ(Terms.constant("y"), Y1);

  // And different names reuse the same id range without aliasing the
  // dropped constants.
  Terms.reset(M);
  Symbol Z = Terms.constant("z");
  EXPECT_EQ(Z, X1);
  EXPECT_EQ(Terms.str(Z), "z");
}

TEST_F(TermTest, ResetDropsHashBucketEntries) {
  TermTable::Mark M = Terms.mark();
  for (int I = 0; I != 100; ++I)
    (void)Terms.constant("c" + std::to_string(I));
  Terms.reset(M);
  EXPECT_EQ(Symbols.size(), 1u);
  // A post-reset lookup of a dropped name must create a fresh symbol,
  // not resurrect a stale index entry.
  Symbol C5 = Terms.constant("c5");
  EXPECT_EQ(C5.id(), 1u);
  EXPECT_EQ(Terms.str(C5), "c5");
}

TEST_F(TermTest, NestedMarksResetLifo) {
  TermTable::Mark Outer = Terms.mark();
  (void)Terms.constant("a");
  TermTable::Mark Inner = Terms.mark();
  (void)Terms.constant("b");

  Terms.reset(Inner);
  EXPECT_EQ(Symbols.size(), 2u);
  EXPECT_EQ(Terms.str(Symbol(1)), "a");
  Terms.reset(Outer);
  EXPECT_EQ(Symbols.size(), 1u);
}

TEST_F(TermTest, SymbolNamesStayReadableAsTableGrows) {
  // One name fits in std::string's inline buffer, one does not.
  std::string Short = "x";
  std::string Long = "a_rather_long_program_variable";
  Symbol S = Symbols.constant(Short);
  Symbol L = Symbols.constant(Long);
  std::string_view SName = Symbols.name(S), LName = Symbols.name(L);
  Short[0] = 'q'; // The table keeps its own copy of each name.
  Long[0] = 'q';
  for (int I = 0; I != 1000; ++I)
    (void)Symbols.constant("g" + std::to_string(I));
  EXPECT_EQ(SName, "x");
  EXPECT_EQ(LName, "a_rather_long_program_variable");
  EXPECT_EQ(Symbols.name(S), "x");
  EXPECT_EQ(Symbols.constant("x"), S);
  EXPECT_EQ(Symbols.constant("a_rather_long_program_variable"), L);
  EXPECT_EQ(Symbols.size(), 1003u);
}

TEST_F(TermTest, SymbolNamesSurviveTruncateAndReintern) {
  Symbol S = Symbols.constant("y");
  Symbol L = Symbols.constant("another_long_variable_name");
  std::string_view SName = Symbols.name(S), LName = Symbols.name(L);
  size_t Kept = Symbols.size();
  Symbol Dropped = Symbols.constant("dropped_long_variable_name");
  for (int I = 0; I != 1000; ++I)
    (void)Symbols.constant("h" + std::to_string(I));
  Symbols.truncate(Kept);
  // A dropped name comes back at the next dense id; distinct names
  // stay distinct symbols.
  EXPECT_EQ(Symbols.constant("dropped_long_variable_name"), Dropped);
  for (int I = 0; I != 1000; ++I)
    EXPECT_NE(Symbols.constant("k" + std::to_string(I)), S);
  EXPECT_EQ(Symbols.size(), Kept + 1001);
  EXPECT_EQ(SName, "y");
  EXPECT_EQ(LName, "another_long_variable_name");
  EXPECT_EQ(Symbols.constant("y"), S);
  EXPECT_EQ(Symbols.constant("another_long_variable_name"), L);
}
