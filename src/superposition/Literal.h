//===- superposition/Literal.h - Equality literals --------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pure literals are (dis)equations between ground terms. An equation
/// is one 64-bit key: the smaller side's symbol id in the high half,
/// the larger side's in the low half. Symbol ids are the term order,
/// so syntactically equal literals have equal keys regardless of how
/// they were written, the side that is larger in the term order is
/// always rhs(), and the key order is the (lhs, rhs) lexicographic
/// order sorted clause sides use: `<` and `==` are single compares.
///
/// The literal order that constrains the inferences of the calculus I
/// and drives model generation is OrientedLiteral's `<=>`. A ground
/// literal s ' t (s ⪰ t) is the multiset {s, t} when positive and
/// {s, s, t, t} when negative; for a total term order the induced
/// literal order is the lexicographic comparison of (max side,
/// polarity, min side), with negative above positive. The clause order
/// is its multiset extension: the lexicographic comparison of the
/// descending-sorted literal lists, a proper prefix being smaller.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPERPOSITION_LITERAL_H
#define SLP_SUPERPOSITION_LITERAL_H

#include "support/Hashing.h"
#include "term/Term.h"

#include <algorithm>
#include <cassert>
#include <compare>
#include <cstdint>

namespace slp {
namespace sup {

/// An equation s ' t or a disequation s !' t over ground terms.
/// Polarity is carried by the owning clause side (Γ holds equations
/// used negatively, ∆ positively), so Equation itself is unsigned.
class Equation {
public:
  /// The trivial equation nil ' nil: a placeholder for buffers.
  Equation() = default;
  Equation(Symbol A, Symbol B)
      : Key(uint64_t(std::min(A.id(), B.id())) << 32 |
            std::max(A.id(), B.id())) {}

  /// The smaller side in the term order.
  Symbol lhs() const { return Symbol(static_cast<uint32_t>(Key >> 32)); }
  /// The larger side in the term order.
  Symbol rhs() const { return Symbol(static_cast<uint32_t>(Key)); }

  /// True for the trivial equation s ' s.
  bool trivial() const { return lhs() == rhs(); }

  /// True if \p T occurs as one of the two sides.
  bool mentions(Symbol T) const { return lhs() == T || rhs() == T; }

  /// Given one side, returns the other. \p T must be a side.
  Symbol other(Symbol T) const {
    assert(mentions(T) && "term is not a side of this equation");
    return T == lhs() ? rhs() : lhs();
  }

  uint64_t hash() const {
    return hashCombine(hashValue(lhs().id()), hashValue(rhs().id()));
  }

  friend bool operator==(const Equation &, const Equation &) = default;

  /// Canonical structural order used for sorted clause storage (not
  /// the proof-theoretic literal ordering).
  friend bool operator<(const Equation &A, const Equation &B) {
    return A.Key < B.Key;
  }

private:
  uint64_t Key = 0; ///< lhs id << 32 | rhs id.
};

static_assert(sizeof(Equation) == 8, "an equation is one 64-bit key");

/// A literal: an equation and its polarity, as one integer whose order
/// is the literal order (see \file). From the top bit down it holds the
/// larger side's symbol id, the polarity (negative above positive),
/// then the smaller side's symbol id.
class OrientedLiteral {
public:
  /// The positive literal nil ' nil: a placeholder for buffers.
  OrientedLiteral() = default;
  OrientedLiteral(const Equation &E, bool Negative)
      : Key(uint64_t(E.rhs().id()) << 32 | uint64_t(Negative) << 31 |
            E.lhs().id()) {
    assert(E.lhs().id() < (1u << 31) && "symbol id overflows the literal key");
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
  uint64_t Key = 0;
};

} // namespace sup
} // namespace slp

#endif // SLP_SUPERPOSITION_LITERAL_H
