//===- superposition/ClauseOrdering.cpp - Literal/clause orders -----------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "superposition/ClauseOrdering.h"

#include <algorithm>

using namespace slp;
using namespace slp::sup;

Order ClauseOrdering::compareLiterals(const OrientedLiteral &A,
                                      const OrientedLiteral &B) const {
  Order O = compareTerms(A.Max, B.Max);
  if (O != Order::Equal)
    return O;
  if (A.Negative != B.Negative)
    return A.Negative ? Order::Greater : Order::Less;
  return compareTerms(A.Min, B.Min);
}

std::vector<OrientedLiteral>
ClauseOrdering::sortedLiterals(ClauseView C) const {
  std::vector<OrientedLiteral> Lits;
  Lits.reserve(C.size());
  for (const Equation &E : C.neg())
    Lits.push_back(orient(E, /*Negative=*/true));
  for (const Equation &E : C.pos())
    Lits.push_back(orient(E, /*Negative=*/false));
  std::sort(Lits.begin(), Lits.end(),
            [this](const OrientedLiteral &A, const OrientedLiteral &B) {
              return compareLiterals(A, B) == Order::Greater;
            });
  return Lits;
}

Order ClauseOrdering::compareSortedLiterals(
    std::span<const OrientedLiteral> LA,
    std::span<const OrientedLiteral> LB) const {
  size_t N = std::min(LA.size(), LB.size());
  for (size_t I = 0; I != N; ++I) {
    Order O = compareLiterals(LA[I], LB[I]);
    if (O != Order::Equal)
      return O;
  }
  if (LA.size() < LB.size())
    return Order::Less;
  if (LA.size() > LB.size())
    return Order::Greater;
  return Order::Equal;
}

Order ClauseOrdering::compareClauses(ClauseView A, ClauseView B) const {
  // For total element orders, the multiset extension coincides with a
  // lexicographic comparison of the descending-sorted sequences, with
  // a proper prefix being smaller.
  return compareSortedLiterals(sortedLiterals(A), sortedLiterals(B));
}

bool ClauseOrdering::isMaximal(const OrientedLiteral &L,
                               ClauseView C) const {
  for (const Equation &E : C.neg())
    if (compareLiterals(orient(E, true), L) == Order::Greater)
      return false;
  for (const Equation &E : C.pos())
    if (compareLiterals(orient(E, false), L) == Order::Greater)
      return false;
  return true;
}

bool ClauseOrdering::isStrictlyMaximal(const OrientedLiteral &L,
                                       ClauseView C) const {
  // Count literals >= L; exactly one (L's own occurrence) is allowed.
  unsigned GreaterOrEqual = 0;
  for (const Equation &E : C.neg())
    if (compareLiterals(orient(E, true), L) != Order::Less)
      ++GreaterOrEqual;
  for (const Equation &E : C.pos())
    if (compareLiterals(orient(E, false), L) != Order::Less)
      ++GreaterOrEqual;
  return GreaterOrEqual == 1;
}
