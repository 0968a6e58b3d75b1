//===- term/Ordering.h - The term order -------------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The total order on ground terms that drives the superposition
/// calculus. Terms are constants, so the order is a precedence on
/// symbols: creation order, i.e. symbol id. Section 3.3 of the paper
/// requires nil to be the minimal constant, and nil is symbol 0.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_TERM_ORDERING_H
#define SLP_TERM_ORDERING_H

#include "term/Term.h"

namespace slp {

/// Three-way comparison result for term orderings.
enum class Order { Less, Equal, Greater };

inline Order flip(Order O) {
  if (O == Order::Less)
    return Order::Greater;
  if (O == Order::Greater)
    return Order::Less;
  return Order::Equal;
}

/// Compares two ground terms by symbol id (nil minimal).
inline Order compareTerms(Symbol A, Symbol B) {
  const uint32_t SA = A.id(), SB = B.id();
  if (SA < SB)
    return Order::Less;
  if (SA > SB)
    return Order::Greater;
  return Order::Equal;
}

/// Of two terms, returns the larger one.
inline Symbol maxTerm(Symbol A, Symbol B) {
  return compareTerms(B, A) == Order::Greater ? B : A;
}

} // namespace slp

#endif // SLP_TERM_ORDERING_H
