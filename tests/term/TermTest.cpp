//===- tests/term/TermTest.cpp ------------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "term/Term.h"

#include <gtest/gtest.h>

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
