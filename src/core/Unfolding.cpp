//===- core/Unfolding.cpp - Rules U1-U5 and SR -------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/Unfolding.h"

#include "core/ModelAdapter.h"
#include "core/WellFormedness.h"

#include <algorithm>

using namespace slp;
using namespace slp::core;

namespace {

/// Highest location mentioned by the stack or heap, for fresh picks.
sl::Loc maxLocation(const sl::Stack &S, const sl::Heap &H) {
  sl::Loc Max = sl::NilLoc;
  S.forEachBinding([&](Symbol, sl::Loc L) { Max = std::max(Max, L); });
  for (auto [From, To] : H.cells()) {
    Max = std::max(Max, From);
    Max = std::max(Max, To);
  }
  return Max;
}

} // namespace

UnfoldResult core::unfold(const sl::Stack &SR, const PosSpatialClause &C,
                          const NegSpatialClause &CPrime) {
  assert(isWellFormed(C.Sigma) && "unfolding requires a well-formed Σ_R");

  // Matching pass (Lemma 4.4, step one): if the graph heap does not
  // satisfy Σ'_R, it is itself the countermodel. The rewrite walk and
  // its heap surgeries below are only justified once the match holds.
  {
    sl::Heap H0 = graphHeap(SR, C.Sigma);
    if (!sl::satisfies(SR, H0, CPrime.Sigma)) {
      UnfoldResult R;
      R.K = UnfoldResult::Kind::CounterModel;
      R.Cex = std::move(H0);
      R.Note = "gr_R Σ_R does not satisfy Σ'_R";
      return R;
    }
  }

  // Index the atoms of Σ_R by their (normal form) address; distinct
  // normal forms evaluate to distinct locations under s_R, so term
  // identity coincides with address identity.
  const sl::AddressIndex AtomAt(C.Sigma);

  std::vector<bool> Consumed(C.Sigma.size(), false);
  std::vector<sup::Equation> SideEqs;

  auto GraphCex = [&](const char *Note) {
    UnfoldResult R;
    R.K = UnfoldResult::Kind::CounterModel;
    R.Cex = graphHeap(SR, C.Sigma);
    R.Note = Note;
    return R;
  };

  for (const sl::HeapAtom &AP : CPrime.Sigma) {
    const size_t It = AtomAt.at(AP.Addr);

    if (AP.isNext()) {
      // Σ' wants the single cell AP.Addr -> AP.Val.
      if (It == sl::AddressIndex::None)
        return GraphCex("Σ' allocates an address Σ does not");
      const sl::HeapAtom &T = C.Sigma[It];
      if (Consumed[It])
        return GraphCex("Σ' uses a cell twice");
      if (T.Val != AP.Val)
        return GraphCex("points-to targets disagree");
      if (T.isLseg()) {
        // Case (b) of Lemma 4.4 for next vs. lseg: stretch the lseg
        // edge x̂ -> ŷ into x̂ -> ŵ -> ŷ through a fresh cell ŵ. The
        // lseg in Σ is still satisfied; the next in Σ' is not.
        UnfoldResult R;
        R.K = UnfoldResult::Kind::CounterModel;
        sl::Heap H = graphHeap(SR, C.Sigma);
        sl::Loc A = SR.eval(T.Addr);
        sl::Loc V = SR.eval(T.Val);
        sl::Loc W = maxLocation(SR, H) + 1;
        H.set(A, W);
        H.set(W, V);
        R.Cex = std::move(H);
        R.Note = "stretched lseg refutes next (U-walk case b)";
        return R;
      }
      Consumed[It] = true; // Exact next/next match (SR-ready).
      continue;
    }

    // AP is lseg(x, z) with x != z (trivial atoms were normalized
    // away). Walk Σ_R's graph from x towards z, consuming atoms.
    Symbol Cur = AP.Addr;
    Symbol End = AP.Val;
    while (Cur != End) {
      const size_t Step = AtomAt.at(Cur);
      if (Step == sl::AddressIndex::None)
        return GraphCex("lseg in Σ' dangles in Σ's heap");
      if (Consumed[Step])
        return GraphCex("lseg in Σ' overlaps another atom");
      Consumed[Step] = true;
      const sl::HeapAtom &T = C.Sigma[Step];

      if (T.isNext()) {
        // U1 (final step) / U2 (inner step): either way the unfolding
        // records the alternative that lseg(Cur, End) is empty.
        SideEqs.emplace_back(Cur, End);
        Cur = T.Val;
        continue;
      }

      // T is lseg(Cur, T.Val).
      if (T.Val == End) {
        // Exact tail match; the segment is fully matched.
        Cur = T.Val;
        continue;
      }
      if (End.isNil()) {
        // U3: appending to a nil-terminated segment is always sound.
        Cur = T.Val;
        continue;
      }
      const size_t Guard = AtomAt.at(End);
      if (Guard != sl::AddressIndex::None) {
        // U4 (end allocated as next) / U5 (end allocated as lseg,
        // which additionally may be empty: record z ' w).
        const sl::HeapAtom &Z = C.Sigma[Guard];
        if (Z.isLseg())
          SideEqs.emplace_back(Z.Addr, Z.Val);
        Cur = T.Val;
        continue;
      }
      // Case (b) of Lemma 4.4 for a dangling composition target:
      // reroute the lseg edge Cur -> T.Val through ẑ. Σ still holds;
      // in the rerouted heap the walk of lseg(x, z) must stop at its
      // first visit of ẑ, leaving the cell ẑ unconsumable for Σ'.
      UnfoldResult R;
      R.K = UnfoldResult::Kind::CounterModel;
      sl::Heap H = graphHeap(SR, C.Sigma);
      sl::Loc A = SR.eval(T.Addr);
      sl::Loc V = SR.eval(T.Val);
      sl::Loc Z = SR.eval(End);
      assert(!H.contains(Z) && Z != sl::NilLoc && "guarded by the walk");
      H.set(A, Z);
      H.set(Z, V);
      R.Cex = std::move(H);
      R.Note = "rerouted lseg through dangling endpoint (U-walk case b)";
      return R;
    }
  }

  if (std::find(Consumed.begin(), Consumed.end(), false) != Consumed.end())
    return GraphCex("Σ' covers only part of Σ's heap");

  // Spatial resolution SR: Σ'_R has been rewritten into Σ_R exactly;
  // the two spatial atoms cancel and the pure residue is the clause
  // Γ ∪ Γ' → ∆ ∪ ∆' ∪ side-literals.
  UnfoldResult R;
  R.K = UnfoldResult::Kind::Derived;
  R.Derived.Neg = C.Neg;
  R.Derived.Neg.insert(R.Derived.Neg.end(), CPrime.Neg.begin(),
                       CPrime.Neg.end());
  R.Derived.Pos = C.Pos;
  R.Derived.Pos.insert(R.Derived.Pos.end(), CPrime.Pos.begin(),
                       CPrime.Pos.end());
  R.Derived.Pos.insert(R.Derived.Pos.end(), SideEqs.begin(), SideEqs.end());
  R.Derived.Rule = InputRule::SR;
  R.Note = "unfolding walk succeeded";
  return R;
}
