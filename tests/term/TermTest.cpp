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
  EXPECT_TRUE(Terms.nil()->isNil());
}

TEST_F(TermTest, ConstantsAreInterned) {
  const Term *A1 = Terms.constant("a");
  const Term *A2 = Terms.constant("a");
  const Term *B = Terms.constant("b");
  EXPECT_EQ(A1, A2);
  EXPECT_NE(A1, B);
  EXPECT_EQ(Terms.constant(A1->symbol()), A1);
}

TEST_F(TermTest, IdsAreDense) {
  const Term *Nil = Terms.nil();
  const Term *A = Terms.constant("a");
  EXPECT_EQ(Terms.byId(Nil->id()), Nil);
  EXPECT_EQ(Terms.byId(A->id()), A);
  EXPECT_EQ(Terms.size(), 2u);
}

TEST_F(TermTest, ManyConstantsStayDistinct) {
  std::vector<const Term *> Cs;
  for (int I = 0; I != 500; ++I)
    Cs.push_back(Terms.constant("v" + std::to_string(I)));
  for (int I = 0; I != 500; ++I)
    EXPECT_EQ(Cs[I], Terms.constant("v" + std::to_string(I)));
  // The nil *symbol* always exists but its term is created lazily.
  EXPECT_EQ(Terms.size(), 500u);
}

TEST_F(TermTest, MarkResetTruncatesTermsAndSymbols) {
  const Term *Nil = Terms.nil();
  const Term *A = Terms.constant("a");
  // A symbol interned before the mark whose term is made after it.
  Symbol C = Symbols.constant("c");
  TermTable::Mark M = Terms.mark();

  Symbol F = Symbols.constant("f");
  (void)Terms.constant("b");
  (void)Terms.constant(F);
  (void)Terms.constant(C);
  EXPECT_EQ(Terms.size(), 5u);

  Terms.reset(M);
  EXPECT_EQ(Terms.size(), 2u);
  EXPECT_EQ(Symbols.size(), 3u); // nil, a, c
  // Pre-mark terms survive with identity intact.
  EXPECT_EQ(Terms.nil(), Nil);
  EXPECT_EQ(Terms.constant("a"), A);
  // The surviving symbol gets a fresh term at the next dense id.
  EXPECT_EQ(Terms.constant(C)->id(), 2u);
}

TEST_F(TermTest, ResetReassignsDenseIdsDeterministically) {
  Terms.nil();
  TermTable::Mark M = Terms.mark();

  const Term *X1 = Terms.constant("x");
  const Term *Y1 = Terms.constant("y");
  uint32_t XId = X1->id(), YId = Y1->id();
  uint32_t XSym = X1->symbol().id();

  Terms.reset(M);
  // Interning the same names again reproduces the same dense ids —
  // the property session reuse relies on for determinism.
  const Term *X2 = Terms.constant("x");
  const Term *Y2 = Terms.constant("y");
  EXPECT_EQ(X2->id(), XId);
  EXPECT_EQ(Y2->id(), YId);
  EXPECT_EQ(X2->symbol().id(), XSym);

  // And different names reuse the same id range without aliasing the
  // dropped terms.
  Terms.reset(M);
  const Term *Z = Terms.constant("z");
  EXPECT_EQ(Z->id(), XId);
  EXPECT_EQ(Terms.str(Z), "z");
}

TEST_F(TermTest, ResetDropsHashBucketEntries) {
  Terms.nil();
  TermTable::Mark M = Terms.mark();
  for (int I = 0; I != 100; ++I)
    (void)Terms.constant("c" + std::to_string(I));
  Terms.reset(M);
  EXPECT_EQ(Terms.size(), 1u);
  // A post-reset lookup of a dropped name must create a fresh term,
  // not resurrect a stale index entry.
  const Term *C5 = Terms.constant("c5");
  EXPECT_EQ(C5->id(), 1u);
  EXPECT_EQ(Terms.byId(1), C5);
}

TEST_F(TermTest, NestedMarksResetLifo) {
  Terms.nil();
  TermTable::Mark Outer = Terms.mark();
  (void)Terms.constant("a");
  TermTable::Mark Inner = Terms.mark();
  (void)Terms.constant("b");

  Terms.reset(Inner);
  EXPECT_EQ(Terms.size(), 2u);
  EXPECT_EQ(Terms.str(Terms.byId(1)), "a");
  Terms.reset(Outer);
  EXPECT_EQ(Terms.size(), 1u);
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

TEST_F(TermTest, ResetKeepsEarlierTermsInPlace) {
  std::vector<const Term *> Before;
  for (int I = 0; I != 100; ++I)
    Before.push_back(Terms.constant("b" + std::to_string(I)));
  TermTable::Mark M = Terms.mark();
  for (int I = 0; I != 1000; ++I)
    (void)Terms.constant("c" + std::to_string(I));
  Terms.reset(M);
  // Regrow well past the dropped tail, through many storage chunks.
  for (int I = 0; I != 2000; ++I)
    (void)Terms.constant("d" + std::to_string(I));
  for (int I = 0; I != 100; ++I) {
    EXPECT_EQ(Terms.byId(static_cast<uint32_t>(I)), Before[I]);
    EXPECT_EQ(Before[I]->id(), static_cast<uint32_t>(I));
    EXPECT_EQ(Terms.str(Before[I]), "b" + std::to_string(I));
    EXPECT_EQ(Terms.constant("b" + std::to_string(I)), Before[I]);
  }
  EXPECT_EQ(Terms.size(), 2100u);
}
