//===- superposition/Literal.h - Equality literals --------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pure literals are (dis)equations between ground terms. An equation
/// is two symbol ids, stored smaller first. Symbol ids are the term
/// order, so syntactically equal literals compare equal regardless of
/// how they were written, and the side that is larger in the term
/// order is always rhs().
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_LITERAL_H
#define SLP_SUPERPOSITION_LITERAL_H

#include "support/Hashing.h"
#include "term/Term.h"

#include <algorithm>
#include <tuple>

namespace slp {
namespace sup {

/// An equation s ' t or a disequation s !' t over ground terms.
/// Polarity is carried by the owning clause side (Γ holds equations
/// used negatively, ∆ positively), so Equation itself is unsigned.
class Equation {
public:
  Equation(Symbol A, Symbol B)
      : Lhs(std::min(A.id(), B.id())), Rhs(std::max(A.id(), B.id())) {}

  /// The smaller side in the term order.
  Symbol lhs() const { return Symbol(Lhs); }
  /// The larger side in the term order.
  Symbol rhs() const { return Symbol(Rhs); }

  /// True for the trivial equation s ' s.
  bool trivial() const { return Lhs == Rhs; }

  /// True if \p T occurs as one of the two sides.
  bool mentions(Symbol T) const { return Lhs == T.id() || Rhs == T.id(); }

  /// Given one side, returns the other. \p T must be a side.
  Symbol other(Symbol T) const {
    assert(mentions(T) && "term is not a side of this equation");
    return Symbol(T.id() == Lhs ? Rhs : Lhs);
  }

  uint64_t hash() const {
    return hashCombine(hashValue(Lhs), hashValue(Rhs));
  }

  friend bool operator==(const Equation &A, const Equation &B) {
    return A.Lhs == B.Lhs && A.Rhs == B.Rhs;
  }
  friend bool operator!=(const Equation &A, const Equation &B) {
    return !(A == B);
  }

  /// Canonical structural order used for sorted clause storage (not
  /// the proof-theoretic literal ordering).
  friend bool operator<(const Equation &A, const Equation &B) {
    return std::tuple(A.Lhs, A.Rhs) < std::tuple(B.Lhs, B.Rhs);
  }

private:
  uint32_t Lhs; ///< Symbol id of the smaller side.
  uint32_t Rhs; ///< Symbol id of the larger side.
};

static_assert(sizeof(Equation) == 8, "an equation is two symbol ids");

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_LITERAL_H
