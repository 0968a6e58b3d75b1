//===- analysis/Closure.h - Pure-part congruence closure --------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A union-find congruence closure over the pure part Π of an
/// assertion, with disequality tracking. The fragment's program
/// expressions are constants, so congruence degenerates to
/// equivalence closure over symbol ids. Each class root keeps a list
/// holding one member id of every class recorded distinct from it
/// (one entry per recorded disequality, in both endpoints' lists), so
/// `x != y` together with `y = z` answers distinct(x, z). A
/// contradiction (some recorded disequality whose endpoints share a
/// class) is detected eagerly and latches: once contradictory, always
/// contradictory.
///
/// This is the substrate of the static pre-solver (analysis::analyze).
/// unite is near-O(1) amortized plus one scan of the merged class's
/// list, which absorbs the smaller of the two lists; distinct()
/// scans the shorter of its two classes' lists. No operation visits
/// the whole disequality store.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_ANALYSIS_CLOSURE_H
#define SLP_ANALYSIS_CLOSURE_H

#include "sl/Formula.h"
#include "support/UnionFind.h"

#include <vector>

namespace slp {
namespace analysis {

/// Equivalence closure of a set of ground equalities plus a
/// disequality store, queried through the closure.
class PureClosure {
public:
  /// Merges the classes of \p A and \p B. Returns true iff the
  /// closure changed (the two were in different classes).
  bool unite(Symbol A, Symbol B);

  /// Records A != B. Returns true iff the fact is new, i.e. was not
  /// already derivable from the store under the current closure.
  bool addDisequality(Symbol A, Symbol B);

  /// Adds one pure atom (equality or disequality).
  void add(const sl::PureAtom &A) {
    if (A.Negated)
      addDisequality(A.Lhs, A.Rhs);
    else
      unite(A.Lhs, A.Rhs);
  }

  /// True iff the closure forces A = B.
  bool same(Symbol A, Symbol B) {
    return find(A) == find(B);
  }

  /// True iff some recorded disequality separates the classes of
  /// \p A and \p B.
  bool distinct(Symbol A, Symbol B);

  /// True iff some recorded disequality has both endpoints in one
  /// class (i.e. the asserted pure facts are unsatisfiable).
  bool contradictory() const { return Contradiction; }

  /// Class representative id for \p T (stable between unites).
  uint32_t find(Symbol T) { return UF.find(T.id()); }

private:
  UnionFind UF;
  /// Indexed by class root: a member id of each class recorded
  /// distinct from that root's class. Only roots' lists are live.
  std::vector<std::vector<uint32_t>> Diseqs;
  bool Contradiction = false;
};

} // namespace analysis
} // namespace slp

#endif // SLP_ANALYSIS_CLOSURE_H
