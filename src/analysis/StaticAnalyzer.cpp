//===- analysis/StaticAnalyzer.cpp - Polynomial entailment pre-solver ---------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalyzer.h"

#include "analysis/Closure.h"
#include "sl/Semantics.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <unordered_map>

using namespace slp;
using namespace slp::analysis;

const char *analysis::reasonName(Reason R) {
  switch (R) {
  case Reason::None:
    return "none";
  case Reason::PureContradiction:
    return "pure-contradiction";
  case Reason::WfContradiction:
    return "wf-contradiction";
  case Reason::SyntacticMatch:
    return "syntactic-match";
  case Reason::CounterModel:
    return "countermodel";
  }
  return "none";
}

namespace {

/// One spatial atom viewed through a closure: class ids plus the
/// original terms (kept for provenance and model building).
struct NormAtom {
  bool Lseg = false;
  uint32_t Addr = 0, Val = 0;
  const sl::HeapAtom *Src = nullptr;
};

/// Rewrites Σ to class representatives, dropping trivial lseg(x, x)
/// atoms (they denote emp).
std::vector<NormAtom> normalized(PureClosure &C,
                                 const sl::SpatialFormula &Sigma) {
  std::vector<NormAtom> Out;
  Out.reserve(Sigma.size());
  for (const sl::HeapAtom &A : Sigma) {
    NormAtom N{A.isLseg(), C.find(A.Addr), C.find(A.Val), &A};
    if (N.Lseg && N.Addr == N.Val)
      continue;
    Out.push_back(N);
  }
  return Out;
}

/// True iff the atom describes at least one heap cell in every model:
/// next atoms always do, lseg atoms once their endpoints are known
/// distinct.
bool definitelyNonEmpty(PureClosure &C, const NormAtom &A) {
  return !A.Lseg || C.distinct(A.Src->Addr, A.Src->Val);
}

struct FixpointOutcome {
  bool Contradiction = false;
  bool FromSigma = false; ///< True iff a W rule (not Π alone) fired.
  std::string Detail;
};

/// Closes \p C under the W1-W5 consequences of \p Sigma (Figure 1,
/// read off the atom multiset — no search). Forced equalities are
/// united into the closure; contradictions latch. Each iteration
/// either merges two classes or records a new disequality, so the
/// loop is polynomial.
FixpointOutcome wellFormednessFixpoint(const TermTable &Terms,
                                       PureClosure &C, const Term *Nil,
                                       const sl::SpatialFormula &Sigma) {
  FixpointOutcome Out;
  auto Contradict = [&](const char *Rule, const sl::HeapAtom &A,
                        const sl::HeapAtom *B) {
    Out.Contradiction = true;
    Out.FromSigma = true;
    Out.Detail = std::string(Rule) + " on " + str(Terms, A);
    if (B)
      Out.Detail += " / " + str(Terms, *B);
  };

  bool Changed = true;
  while (Changed && !Out.Contradiction) {
    Changed = false;
    std::vector<NormAtom> Atoms = normalized(C, Sigma);
    uint32_t NilClass = C.find(Nil);

    // W1/W2: nil may not address a heap cell.
    for (const NormAtom &A : Atoms) {
      if (A.Addr != NilClass)
        continue;
      if (!A.Lseg)
        return Contradict("W1", *A.Src, nullptr), Out;
      Changed |= C.unite(A.Src->Val, Nil); // W2: the lseg is empty.
    }

    // W3/W4/W5: two atoms cannot share an address.
    for (size_t I = 0; I != Atoms.size() && !C.contradictory(); ++I)
      for (size_t J = I + 1; J != Atoms.size(); ++J) {
        const NormAtom &A = Atoms[I], &B = Atoms[J];
        if (A.Addr != B.Addr)
          continue;
        if (!A.Lseg && !B.Lseg)
          return Contradict("W3", *A.Src, B.Src), Out;
        if (A.Lseg != B.Lseg) {
          // W4: the lseg of the pair must be empty.
          const sl::HeapAtom *L = A.Lseg ? A.Src : B.Src;
          Changed |= C.unite(L->Addr, L->Val);
          if (C.contradictory())
            return Contradict("W4", *A.Src, B.Src), Out;
          continue;
        }
        // W5: one of the two lsegs must be empty.
        bool ANonEmpty = C.distinct(A.Src->Addr, A.Src->Val);
        bool BNonEmpty = C.distinct(B.Src->Addr, B.Src->Val);
        if (ANonEmpty && BNonEmpty)
          return Contradict("W5", *A.Src, B.Src), Out;
        if (ANonEmpty)
          Changed |= C.unite(B.Src->Addr, B.Src->Val);
        if (BNonEmpty)
          Changed |= C.unite(A.Src->Addr, A.Src->Val);
        if (C.contradictory())
          return Contradict("W5", *A.Src, B.Src), Out;
      }

    // Derived disequalities: a definitely non-empty atom allocates
    // its address, so the address is not nil and two such addresses
    // in disjoint subheaps are pairwise distinct. These are
    // consequences of the antecedent's satisfiability, hence valid
    // facts for RHS entailment and for further W5 forcing.
    Atoms = normalized(C, Sigma);
    for (size_t I = 0; I != Atoms.size(); ++I) {
      if (!definitelyNonEmpty(C, Atoms[I]))
        continue;
      Changed |= C.addDisequality(Atoms[I].Src->Addr, Nil);
      for (size_t J = I + 1; J != Atoms.size(); ++J)
        if (definitelyNonEmpty(C, Atoms[J]))
          Changed |=
              C.addDisequality(Atoms[I].Src->Addr, Atoms[J].Src->Addr);
    }
    if (C.contradictory()) {
      Out.Contradiction = true;
      Out.FromSigma = true;
      Out.Detail = "well-formedness closure contradiction";
    }
  }
  return Out;
}

/// Syntactic matcher: true iff every RHS pure atom is entailed by the
/// closure and the normalized spatial multisets match (an RHS
/// lseg(a, b) also matches an LHS next(a, b) when a != b is known).
bool matches(PureClosure &C, const sl::Entailment &E) {
  for (const sl::PureAtom &A : E.Rhs.Pure) {
    if (A.Negated ? !C.distinct(A.Lhs, A.Rhs) : !C.same(A.Lhs, A.Rhs))
      return false;
  }

  std::vector<NormAtom> L = normalized(C, E.Lhs.Spatial);
  std::vector<NormAtom> R = normalized(C, E.Rhs.Spatial);
  if (L.size() != R.size())
    return false;

  // Exact matches first, then the next-to-lseg weakening.
  std::vector<bool> Used(L.size(), false);
  std::vector<const NormAtom *> Pending;
  for (const NormAtom &RA : R) {
    bool Found = false;
    for (size_t I = 0; I != L.size() && !Found; ++I)
      if (!Used[I] && L[I].Lseg == RA.Lseg && L[I].Addr == RA.Addr &&
          L[I].Val == RA.Val)
        Used[I] = Found = true;
    if (!Found)
      Pending.push_back(&RA);
  }
  for (const NormAtom *RA : Pending) {
    if (!RA->Lseg)
      return false; // An RHS next has no weakening rule.
    bool Found = false;
    for (size_t I = 0; I != L.size() && !Found; ++I)
      if (!Used[I] && !L[I].Lseg && L[I].Addr == RA->Addr &&
          L[I].Val == RA->Val &&
          C.distinct(L[I].Src->Addr, L[I].Src->Val))
        Used[I] = Found = true;
    if (!Found)
      return false;
  }
  return true;
}

/// Builds a candidate interpretation from a partition of the
/// entailment's terms: every partition class gets one location (the
/// nil class gets NilLoc) and every non-trivial LHS atom contributes
/// a chain of \p LsegCells cells (next atoms always one). Returns
/// nullopt when the candidate cannot even be represented (an
/// allocated nil address or an address collision) — such a candidate
/// is not a model of the LHS anyway.
std::optional<sl::CounterModel>
buildCandidate(UnionFind &Partition,
               const std::vector<const Term *> &AllTerms,
               const Term *Nil, const sl::SpatialFormula &Sigma,
               unsigned LsegCells) {
  sl::CounterModel M;
  std::unordered_map<uint32_t, sl::Loc> ClassLoc;
  uint32_t NilClass = Partition.find(Nil->id());
  ClassLoc[NilClass] = sl::NilLoc;
  sl::Loc Next = 1;
  for (const Term *T : AllTerms) {
    uint32_t Cls = Partition.find(T->id());
    auto [It, New] = ClassLoc.try_emplace(Cls, Next);
    if (New)
      ++Next;
    M.S.bind(T, It->second);
  }

  // Locations beyond Next are free for lseg chain interior nodes.
  sl::Loc Fresh = Next;
  for (const sl::HeapAtom &A : Sigma) {
    uint32_t AddrCls = Partition.find(A.Addr->id());
    uint32_t ValCls = Partition.find(A.Val->id());
    if (A.isLseg() && AddrCls == ValCls)
      continue; // Trivial: emp.
    sl::Loc From = ClassLoc.at(AddrCls), To = ClassLoc.at(ValCls);
    unsigned Cells = A.isLseg() ? LsegCells : 1;
    for (unsigned Step = 0; Step != Cells; ++Step) {
      sl::Loc Dst = Step + 1 == Cells ? To : Fresh;
      if (From == sl::NilLoc || M.H.contains(From))
        return std::nullopt;
      M.H.set(From, Dst);
      From = Dst;
      if (Step + 1 != Cells)
        ++Fresh;
    }
  }
  return M;
}

/// Stage 3: probes up to three cheap candidate models, each verified
/// against the executable semantics before being believed.
std::optional<sl::CounterModel>
probeCounterModels(PureClosure &C, const sl::Entailment &E,
                   const Term *Nil) {
  std::vector<const Term *> AllTerms;
  E.collectTerms(AllTerms);
  if (std::find(AllTerms.begin(), AllTerms.end(), Nil) == AllTerms.end())
    AllTerms.push_back(Nil);

  // Probe A/C: every closure class distinct; lsegs as one-cell then
  // two-cell chains (the two-cell chain defeats an RHS next over an
  // LHS lseg).
  UnionFind Distinct = C.partition();
  for (unsigned LsegCells : {1u, 2u}) {
    std::optional<sl::CounterModel> M =
        buildCandidate(Distinct, AllTerms, Nil, E.Lhs.Spatial, LsegCells);
    if (M && sl::isCounterexample(M->S, M->H, E))
      return M;
  }

  // Probe B: greedily merge classes not separated by a recorded
  // disequality (minimal-distinction model; collapses unconstrained
  // lsegs to emp). Nil's class absorbs nothing, so heap addresses
  // stay representable.
  UnionFind Merged = C.partition();
  uint32_t NilClass = Merged.find(Nil->id());
  auto MergeAllowed = [&](uint32_t A, uint32_t B) {
    for (const auto &[X, Y] : C.disequalities()) {
      uint32_t RX = Merged.find(X->id()), RY = Merged.find(Y->id());
      if ((RX == A && RY == B) || (RX == B && RY == A))
        return false;
    }
    return true;
  };
  for (size_t I = 0; I != AllTerms.size(); ++I)
    for (size_t J = I + 1; J != AllTerms.size(); ++J) {
      uint32_t A = Merged.find(AllTerms[I]->id());
      uint32_t B = Merged.find(AllTerms[J]->id());
      if (A == B || A == NilClass || B == NilClass)
        continue;
      if (MergeAllowed(A, B))
        Merged.unite(A, B);
    }
  std::optional<sl::CounterModel> M =
      buildCandidate(Merged, AllTerms, Nil, E.Lhs.Spatial, 1);
  if (M && sl::isCounterexample(M->S, M->H, E))
    return M;
  return std::nullopt;
}

} // namespace

AnalysisResult analysis::analyze(TermTable &Terms, const sl::Entailment &E,
                                 const AnalysisOptions &Opts) {
  AnalysisResult Out;
  const Term *Nil = Terms.nil();

  // Stage 1: closure of Π, then the W1-W5 fixpoint over Σ.
  PureClosure C;
  for (const sl::PureAtom &A : E.Lhs.Pure)
    C.add(A);
  if (C.contradictory()) {
    Out.V = core::Verdict::Valid;
    Out.R = Reason::PureContradiction;
    Out.Detail = "antecedent pure part is unsatisfiable";
    return Out;
  }
  FixpointOutcome W = wellFormednessFixpoint(Terms, C, Nil, E.Lhs.Spatial);
  if (W.Contradiction) {
    Out.V = core::Verdict::Valid;
    Out.R = Reason::WfContradiction;
    Out.Detail = "antecedent is unsatisfiable: " + W.Detail;
    return Out;
  }

  // Stage 2: syntactic matcher on the normalized forms.
  if (matches(C, E)) {
    Out.V = core::Verdict::Valid;
    Out.R = Reason::SyntacticMatch;
    Out.Detail = "normalized RHS is syntactically entailed by the LHS";
    return Out;
  }

  // Stage 3: verified countermodel probes.
  if (Opts.CounterModelProbe)
    if (std::optional<sl::CounterModel> M = probeCounterModels(C, E, Nil)) {
      Out.V = core::Verdict::Invalid;
      Out.R = Reason::CounterModel;
      Out.Detail = "verified countermodel: " + str(Terms, M->S, M->H);
      Out.Cex = std::move(M);
      return Out;
    }

  return Out;
}
