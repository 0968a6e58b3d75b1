//===- superposition/ClauseOrdering.cpp - Literal/clause orders -----------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "superposition/ClauseOrdering.h"

#include <algorithm>
#include <functional>

using namespace slp;
using namespace slp::sup;

/// Maps a three-way comparison onto Order.
static Order toOrder(std::strong_ordering C) {
  return C < 0 ? Order::Less : C > 0 ? Order::Greater : Order::Equal;
}

Order ClauseOrdering::compareLiterals(const OrientedLiteral &A,
                                      const OrientedLiteral &B) const {
  return toOrder(A <=> B);
}

std::vector<OrientedLiteral>
ClauseOrdering::sortedLiterals(ClauseView C) const {
  std::vector<OrientedLiteral> Lits;
  Lits.reserve(C.size());
  for (const Equation &E : C.neg())
    Lits.push_back(orient(E, /*Negative=*/true));
  for (const Equation &E : C.pos())
    Lits.push_back(orient(E, /*Negative=*/false));
  std::sort(Lits.begin(), Lits.end(), std::greater<>());
  return Lits;
}

Order ClauseOrdering::compareSortedLiterals(
    std::span<const OrientedLiteral> LA,
    std::span<const OrientedLiteral> LB) const {
  // A proper prefix is smaller.
  return toOrder(std::lexicographical_compare_three_way(
      LA.begin(), LA.end(), LB.begin(), LB.end()));
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
