//===- superposition/ClauseOrdering.h - Literal/clause orders ---*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The literal and clause orderings that constrain the inferences of
/// the calculus I and drive the model-generation pass. A ground
/// literal s ' t (s ⪰ t) is encoded as the multiset {s, t} when
/// positive and {s, s, t, t} when negative; for a total term order the
/// induced literal order reduces to the lexicographic comparison of
/// (max side, polarity, min side) with negative > positive. The clause
/// order is the multiset extension, computed by comparing the
/// descending-sorted literal sequences lexicographically.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_CLAUSEORDERING_H
#define SLP_SUPERPOSITION_CLAUSEORDERING_H

#include "superposition/Clause.h"
#include "term/Ordering.h"

#include <compare>

namespace slp {
namespace sup {

/// A literal = equation + polarity, as needed by the orderings: one
/// integer whose order is the literal order (see \file). From the top
/// bit down it holds the larger side's symbol id, the polarity
/// (negative above positive), then the smaller side's symbol id.
class OrientedLiteral {
public:
  OrientedLiteral(Symbol Max, Symbol Min, bool Negative)
      : Key(uint64_t(Max.id()) << 32 | uint64_t(Negative) << 31 | Min.id()) {
    assert(Min.id() < (1u << 31) && "symbol id overflows the literal key");
  }

  /// Side that is larger in the term order.
  Symbol max() const { return Symbol(static_cast<uint32_t>(Key >> 32)); }
  /// The other side (equal to max() for s ' s).
  Symbol min() const {
    return Symbol(static_cast<uint32_t>(Key) & ~(1u << 31));
  }
  bool negative() const { return (Key >> 31) & 1; }

  friend auto operator<=>(const OrientedLiteral &,
                          const OrientedLiteral &) = default;

private:
  uint64_t Key;
};

/// Computes literal/clause comparisons induced by the term order.
class ClauseOrdering {
public:
  OrientedLiteral orient(const Equation &E, bool Negative) const {
    return {E.rhs(), E.lhs(), Negative};
  }

  /// Total order on ground literals (multiset encoding; see \file).
  Order compareLiterals(const OrientedLiteral &A,
                        const OrientedLiteral &B) const;

  /// Multiset extension to clauses; total on canonical clauses.
  Order compareClauses(ClauseView A, ClauseView B) const;

  /// Descending-sorted oriented literal list of a clause. Exposed so
  /// callers that compare one clause many times (the model-generation
  /// sort) can precompute the lists once instead of re-sorting per
  /// comparison; the saturation engine pools the lists it computes.
  std::vector<OrientedLiteral> sortedLiterals(ClauseView C) const;

  /// Lexicographic comparison of two descending-sorted literal lists —
  /// the multiset clause order on precomputed lists (a proper prefix
  /// is smaller).
  Order compareSortedLiterals(std::span<const OrientedLiteral> LA,
                              std::span<const OrientedLiteral> LB) const;

  /// True if no literal of \p C is greater than \p L ("maximal").
  bool isMaximal(const OrientedLiteral &L, ClauseView C) const;

  /// True if no literal of \p C is greater than or equal to \p L,
  /// other than one occurrence of \p L itself ("strictly maximal").
  /// Canonical clauses carry each literal once, so this reduces to:
  /// every other literal is strictly smaller.
  bool isStrictlyMaximal(const OrientedLiteral &L, ClauseView C) const;
};

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_CLAUSEORDERING_H
