//===- sl/Formula.h - Separation logic AST ----------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The separation logic fragment of §3.1 (Berdine-Calcagno-O'Hearn):
/// pure atoms x ' y / x !' y, basic spatial atoms next(x, y) and
/// lseg(x, y), *-composed spatial formulas, and entailments
/// Π ∧ Σ → Π' ∧ Σ'. Program expressions are constants interned in a
/// TermTable; nil is the distinguished minimal constant.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SL_FORMULA_H
#define SLP_SL_FORMULA_H

#include "term/Term.h"

#include <string>
#include <vector>

namespace slp {
namespace sl {

/// A pure literal: an equality x ' y or disequality x !' y.
struct PureAtom {
  Symbol Lhs;
  Symbol Rhs;
  bool Negated = false;

  static PureAtom eq(Symbol L, Symbol R) { return {L, R, false}; }
  static PureAtom ne(Symbol L, Symbol R) { return {L, R, true}; }

  friend bool operator==(const PureAtom &A, const PureAtom &B) {
    bool SameEq = (A.Lhs == B.Lhs && A.Rhs == B.Rhs) ||
                  (A.Lhs == B.Rhs && A.Rhs == B.Lhs);
    return SameEq && A.Negated == B.Negated;
  }
};

/// The two heap predicates of the fragment.
enum class HeapAtomKind : uint8_t {
  Next, ///< next(x, y): x points to y, a single cell.
  Lseg, ///< lseg(x, y): acyclic path from x to y (empty iff x = y).
};

/// A basic spatial atom f(Addr, Val) with f in {next, lseg}.
struct HeapAtom {
  HeapAtomKind Kind = HeapAtomKind::Next;
  Symbol Addr;
  Symbol Val;

  static HeapAtom next(Symbol A, Symbol V) {
    return {HeapAtomKind::Next, A, V};
  }
  static HeapAtom lseg(Symbol A, Symbol V) {
    return {HeapAtomKind::Lseg, A, V};
  }

  bool isNext() const { return Kind == HeapAtomKind::Next; }
  bool isLseg() const { return Kind == HeapAtomKind::Lseg; }

  /// A trivial atom lseg(x, x) describes the empty heap.
  bool isTrivialLseg() const { return isLseg() && Addr == Val; }

  friend bool operator==(const HeapAtom &A, const HeapAtom &B) {
    return A.Kind == B.Kind && A.Addr == B.Addr && A.Val == B.Val;
  }
};

/// A spatial formula S1 * ... * Sn; the empty vector denotes emp.
using SpatialFormula = std::vector<HeapAtom>;

/// The position of the first atom at each address of a spatial
/// formula, indexed by the address's symbol id.
class AddressIndex {
public:
  static constexpr size_t None = ~size_t(0);

  explicit AddressIndex(const SpatialFormula &S) {
    for (size_t I = 0; I != S.size(); ++I) {
      const uint32_t A = S[I].Addr.id();
      if (A >= First.size())
        First.resize(A + 1, None);
      if (First[A] == None)
        First[A] = I;
    }
  }

  /// Position of the first atom at \p Addr, or None.
  size_t at(Symbol Addr) const {
    return Addr.id() < First.size() ? First[Addr.id()] : None;
  }

private:
  std::vector<size_t> First;
};

/// A symbolic heap Π ∧ Σ.
struct Assertion {
  std::vector<PureAtom> Pure;
  SpatialFormula Spatial;

  /// Collects every constant mentioned (including nil if it occurs).
  void collectTerms(std::vector<Symbol> &Out) const;
};

/// An entailment Π ∧ Σ → Π' ∧ Σ'.
struct Entailment {
  Assertion Lhs;
  Assertion Rhs;

  void collectTerms(std::vector<Symbol> &Out) const;
};

/// Rendering helpers (concrete syntax of the bundled parser).
std::string str(const TermTable &Terms, const PureAtom &A);
std::string str(const TermTable &Terms, const HeapAtom &A);
std::string str(const TermTable &Terms, const SpatialFormula &S);
std::string str(const TermTable &Terms, const Assertion &A);
std::string str(const TermTable &Terms, const Entailment &E);

} // namespace sl
} // namespace slp

#endif // SLP_SL_FORMULA_H
