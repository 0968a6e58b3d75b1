//===- sl/Semantics.h - Executable model semantics --------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete interpretations (s, h) from §3.1: a stack maps constants
/// to locations (nil to the nil location) and a heap is a finite
/// partial function on non-nil locations. The satisfaction relation
/// |= is implemented exactly, which lets tests machine-check every
/// counterexample the prover produces and powers the brute-force
/// oracle used for differential testing.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SL_SEMANTICS_H
#define SLP_SL_SEMANTICS_H

#include "sl/Formula.h"

#include <map>
#include <string>
#include <vector>

namespace slp {
namespace sl {

/// Memory locations; location 0 plays the role of nil.
using Loc = uint32_t;
constexpr Loc NilLoc = 0;

/// A stack s : Var -> Loc+. nil always evaluates to NilLoc.
class Stack {
public:
  /// Binds constant \p Var to \p L. Binding nil to anything but
  /// NilLoc is a contract violation.
  void bind(Symbol Var, Loc L) {
    assert((!Var.isNil() || L == NilLoc) && "nil evaluates to nil");
    if (Var.id() >= Bindings.size())
      Bindings.resize(Var.id() + 1, Unbound);
    Bindings[Var.id()] = L;
  }

  /// Evaluation function s^: defined for nil and all bound constants.
  Loc eval(Symbol Var) const {
    if (Var.isNil())
      return NilLoc;
    assert(bound(Var) && "unbound program variable");
    return Bindings[Var.id()];
  }

  bool bound(Symbol Var) const {
    return Var.isNil() ||
           (Var.id() < Bindings.size() && Bindings[Var.id()] != Unbound);
  }

  /// Calls \p F(Var, L) for every bound constant, in symbol-id order.
  template <typename Fn> void forEachBinding(Fn F) const {
    for (uint32_t Id = 0; Id != Bindings.size(); ++Id)
      if (Bindings[Id] != Unbound)
        F(Symbol(Id), Bindings[Id]);
  }

private:
  static constexpr Loc Unbound = ~Loc(0);
  /// The location of each constant, by symbol id.
  std::vector<Loc> Bindings;
};

/// A heap h : Loc ⇀ Loc+, i.e. a finite function whose domain
/// excludes nil. Stored ordered for deterministic printing.
class Heap {
public:
  void set(Loc From, Loc To) {
    assert(From != NilLoc && "nil is never allocated");
    Cells[From] = To;
  }

  bool contains(Loc L) const { return Cells.count(L) != 0; }

  Loc get(Loc L) const {
    auto It = Cells.find(L);
    assert(It != Cells.end() && "location not in heap domain");
    return It->second;
  }

  void erase(Loc L) { Cells.erase(L); }
  size_t size() const { return Cells.size(); }
  bool empty() const { return Cells.empty(); }
  const std::map<Loc, Loc> &cells() const { return Cells; }

  /// First location >= \p Hint not in the domain and not nil.
  Loc freshLocation(Loc Hint = 1) const {
    Loc L = Hint == NilLoc ? 1 : Hint;
    while (contains(L))
      ++L;
    return L;
  }

private:
  std::map<Loc, Loc> Cells;
};

/// s |= A for a pure atom.
bool satisfies(const Stack &S, const PureAtom &A);

/// s, h |= Σ: the heap is *exactly* partitioned among the atoms. The
/// decomposition of a functional heap among next/lseg atoms is unique,
/// so this check is deterministic (no search).
bool satisfies(const Stack &S, const Heap &H, const SpatialFormula &Sigma);

/// s, h |= Π ∧ Σ.
bool satisfies(const Stack &S, const Heap &H, const Assertion &A);

/// True iff (s, h) witnesses the *invalidity* of E, i.e. satisfies the
/// left-hand side but not the right-hand side.
bool isCounterexample(const Stack &S, const Heap &H, const Entailment &E);

/// Renders an interpretation, e.g. "stack: x=1 y=2; heap: 1->2 2->0".
std::string str(const TermTable &Terms, const Stack &S, const Heap &H);

} // namespace sl
} // namespace slp

#endif // SLP_SL_SEMANTICS_H
