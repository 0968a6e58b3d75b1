//===- superposition/Literal.h - Equality literals --------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pure literals are (dis)equations between ground terms. A literal is
/// stored in a canonical orientation (smaller term id first) so that
/// syntactically equal literals compare equal regardless of how they
/// were written; the ordering-relevant orientation (the side larger in
/// the term order) is computed on demand.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_LITERAL_H
#define SLP_SUPERPOSITION_LITERAL_H

#include "support/Hashing.h"
#include "term/Term.h"

#include <tuple>

namespace slp {
namespace sup {

/// An equation s ' t or a disequation s !' t over ground terms.
/// Polarity is carried by the owning clause side (Γ holds equations
/// used negatively, ∆ positively), so Equation itself is unsigned.
class Equation {
public:
  Equation(const Term *A, const Term *B) {
    // Canonical orientation: ascending term id.
    if (A->id() <= B->id()) {
      Lhs = A;
      Rhs = B;
    } else {
      Lhs = B;
      Rhs = A;
    }
  }

  const Term *lhs() const { return Lhs; }
  const Term *rhs() const { return Rhs; }

  /// True for the trivial equation s ' s.
  bool trivial() const { return Lhs == Rhs; }

  /// True if \p T occurs as one of the two sides.
  bool mentions(const Term *T) const { return Lhs == T || Rhs == T; }

  /// Given one side, returns the other. \p T must be a side.
  const Term *other(const Term *T) const {
    assert(mentions(T) && "term is not a side of this equation");
    return T == Lhs ? Rhs : Lhs;
  }

  uint64_t hash() const {
    return hashCombine(hashValue(Lhs->id()), hashValue(Rhs->id()));
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
    return std::tuple(A.Lhs->id(), A.Rhs->id()) <
           std::tuple(B.Lhs->id(), B.Rhs->id());
  }

private:
  const Term *Lhs;
  const Term *Rhs;
};

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_LITERAL_H
