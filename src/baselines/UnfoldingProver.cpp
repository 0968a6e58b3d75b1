//===- baselines/UnfoldingProver.cpp - jStar-style baseline ------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "baselines/UnfoldingProver.h"

#include "support/UnionFind.h"

#include <algorithm>
#include <set>
#include <vector>

using namespace slp;
using namespace slp::baselines;

GreedyVerdict UnfoldingProver::prove(const sl::Entailment &E, Fuel &F) {
  // Working copies; the propagation loop may extend the pure part.
  std::vector<sl::PureAtom> Pure = E.Lhs.Pure;
  std::vector<Symbol> Constants;
  Constants.push_back(Terms.nil());
  E.collectTerms(Constants);

  sl::SpatialFormula Sigma, SigmaP;
  UnionFind UF;
  std::set<std::pair<uint32_t, uint32_t>> Diseqs;
  /// The representative of each class, by the symbol id of its root.
  std::vector<Symbol> Rep;

  auto RepOf = [&](Symbol T) {
    assert(UF.find(T.id()) < Rep.size() && "constant outside the query");
    return Rep[UF.find(T.id())];
  };

  // One propagation round: rebuild the congruence and the substituted
  // spatial formulas. Returns false when Π is inconsistent (which
  // proves the entailment outright).
  auto Propagate = [&]() {
    UF = UnionFind();
    Diseqs.clear();
    Rep.clear();
    for (const sl::PureAtom &A : Pure)
      if (!A.Negated)
        UF.unite(A.Lhs.id(), A.Rhs.id());
    for (const sl::PureAtom &A : Pure) {
      if (!A.Negated)
        continue;
      uint32_t RA = UF.find(A.Lhs.id()), RB = UF.find(A.Rhs.id());
      if (RA == RB)
        return false;
      Diseqs.emplace(std::min(RA, RB), std::max(RA, RB));
    }
    // The smallest symbol id represents its class, so nil (symbol 0)
    // represents the class containing it.
    for (Symbol C : Constants) {
      uint32_t R = UF.find(C.id());
      if (R >= Rep.size())
        Rep.resize(R + 1);
      if (!Rep[R].valid() || C < Rep[R])
        Rep[R] = C;
    }

    auto Subst = [&](const sl::SpatialFormula &In) {
      sl::SpatialFormula Out;
      for (const sl::HeapAtom &A : In) {
        sl::HeapAtom B{A.Kind, RepOf(A.Addr), RepOf(A.Val)};
        if (!B.isTrivialLseg())
          Out.push_back(B);
      }
      return Out;
    };
    Sigma = Subst(E.Lhs.Spatial);
    SigmaP = Subst(E.Rhs.Spatial);
    return true;
  };

  // Greedy well-formedness propagation: apply only *forced* equalities
  // (single-branch rules); anything requiring a case split is skipped.
  for (;;) {
    if (!F.consume())
      return GreedyVerdict::NotProved;
    if (!Propagate())
      return GreedyVerdict::Valid; // Inconsistent Π.

    bool Again = false;
    for (size_t I = 0; I != Sigma.size() && !Again; ++I) {
      const sl::HeapAtom &A = Sigma[I];
      if (A.Addr.isNil()) {
        if (A.isNext())
          return GreedyVerdict::Valid; // Unsatisfiable Σ.
        Pure.push_back(sl::PureAtom::eq(A.Val, A.Addr));
        Again = true;
        break;
      }
      for (size_t J = I + 1; J != Sigma.size(); ++J) {
        // Per-pair fuel, matching the Berdine prover's discipline: the
        // quadratic scan is on the budget and polls cancellation.
        if (!F.consume())
          return GreedyVerdict::NotProved;
        const sl::HeapAtom &B = Sigma[J];
        if (A.Addr != B.Addr)
          continue;
        if (A.isNext() && B.isNext())
          return GreedyVerdict::Valid; // Unsatisfiable Σ.
        if (A.isNext() || B.isNext()) {
          const sl::HeapAtom &L = A.isLseg() ? A : B;
          Pure.push_back(sl::PureAtom::eq(L.Addr, L.Val));
          Again = true;
          break;
        }
        // lseg/lseg sharing an address needs a case split; greedy
        // provers cannot branch, so the proof attempt fails here.
        return GreedyVerdict::NotProved;
      }
    }
    if (!Again)
      break;
  }

  // "Evidently distinct": explicit disequality, or two distinct
  // allocated next-cells, or a next-cell vs nil. lseg addresses are
  // not used (the segment might be empty) — a deliberate source of
  // incompleteness shared with rule-based tools.
  std::set<uint32_t> NextAddrs;
  for (const sl::HeapAtom &A : Sigma)
    if (A.isNext())
      NextAddrs.insert(A.Addr.id());
  auto Distinct = [&](Symbol X, Symbol Y) {
    if (X == Y)
      return false;
    uint32_t RX = UF.find(X.id()), RY = UF.find(Y.id());
    if (Diseqs.count({std::min(RX, RY), std::max(RX, RY)}))
      return true;
    bool XNext = NextAddrs.count(X.id()), YNext = NextAddrs.count(Y.id());
    if (XNext && YNext)
      return true;
    if ((XNext && Y.isNil()) || (YNext && X.isNil()))
      return true;
    return false;
  };

  // Π' must be syntactically evident.
  for (const sl::PureAtom &A : E.Rhs.Pure) {
    if (!F.consume())
      return GreedyVerdict::NotProved;
    if (A.Negated) {
      if (!Distinct(RepOf(A.Lhs), RepOf(A.Rhs)))
        return GreedyVerdict::NotProved;
    } else if (RepOf(A.Lhs) != RepOf(A.Rhs)) {
      return GreedyVerdict::NotProved;
    }
  }

  // Greedy spatial matching: walk each Σ' atom over Σ once, applying
  // the unfolding axioms only when their side conditions are evident.
  const sl::AddressIndex AtomAt(Sigma);
  std::vector<bool> Consumed(Sigma.size(), false);

  for (const sl::HeapAtom &AP : SigmaP) {
    if (!F.consume())
      return GreedyVerdict::NotProved;
    const size_t It = AtomAt.at(AP.Addr);
    if (AP.isNext()) {
      if (It == sl::AddressIndex::None || Consumed[It])
        return GreedyVerdict::NotProved;
      const sl::HeapAtom &T = Sigma[It];
      if (!T.isNext() || T.Val != AP.Val)
        return GreedyVerdict::NotProved;
      Consumed[It] = true;
      continue;
    }
    Symbol Cur = AP.Addr;
    Symbol End = AP.Val;
    while (Cur != End) {
      if (!F.consume())
        return GreedyVerdict::NotProved;
      const size_t Step = AtomAt.at(Cur);
      if (Step == sl::AddressIndex::None || Consumed[Step])
        return GreedyVerdict::NotProved;
      Consumed[Step] = true;
      const sl::HeapAtom &T = Sigma[Step];
      if (T.isNext()) {
        // U1/U2 require the remaining segment to be provably nonempty.
        if (!Distinct(Cur, End))
          return GreedyVerdict::NotProved;
        Cur = T.Val;
        continue;
      }
      if (T.Val == End) {
        Cur = T.Val;
        continue;
      }
      if (End.isNil()) {
        Cur = T.Val; // U3.
        continue;
      }
      const size_t Guard = AtomAt.at(End);
      if (Guard == sl::AddressIndex::None)
        return GreedyVerdict::NotProved;
      const sl::HeapAtom &Z = Sigma[Guard];
      if (Z.isLseg() && !Distinct(Z.Addr, Z.Val))
        return GreedyVerdict::NotProved; // U5's side case is undecided.
      Cur = T.Val;
    }
  }

  if (std::find(Consumed.begin(), Consumed.end(), false) != Consumed.end())
    return GreedyVerdict::NotProved;
  return GreedyVerdict::Valid;
}
