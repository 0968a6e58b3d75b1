//===- tests/term/OrderingTest.cpp --------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// The term order ranks constants by symbol id: creation order, with
/// nil (symbol 0) minimal as §3.3 of the paper requires.
///
//===----------------------------------------------------------------------===//

#include "term/Term.h"

#include <gtest/gtest.h>

#include <vector>

using namespace slp;

namespace {

class OrderingTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
};

} // namespace

TEST_F(OrderingTest, NilIsMinimalConstant) {
  for (const char *Name : {"a", "b", "z", "x1"})
    EXPECT_TRUE(Terms.nil() < Terms.constant(Name))
        << Name << " must be greater than nil";
}

TEST_F(OrderingTest, ConstantsOrderedBySymbolCreation) {
  // Symbols interned in the order z, a, y; nil's term is made last, but
  // nil is symbol 0 and stays minimal.
  std::vector<Symbol> Cs;
  for (const char *Name : {"z", "a", "y"})
    Cs.push_back(Terms.constant(Name));
  Cs.insert(Cs.begin(), Terms.nil());
  for (size_t I = 0; I != Cs.size(); ++I)
    for (size_t J = 0; J != Cs.size(); ++J) {
      EXPECT_EQ(Cs[I] < Cs[J], I < J)
          << Terms.str(Cs[I]) << " vs " << Terms.str(Cs[J]);
      EXPECT_EQ(Cs[I] == Cs[J], I == J);
    }
}
