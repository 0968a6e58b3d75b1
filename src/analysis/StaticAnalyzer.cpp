//===- analysis/StaticAnalyzer.cpp - Polynomial entailment pre-solver ---------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalyzer.h"

#include "analysis/Closure.h"

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
  }
  return "none";
}

namespace {

/// One spatial atom viewed through a closure: class ids plus the
/// original terms (kept for provenance and closure queries).
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
                                       PureClosure &C, Symbol Nil,
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

} // namespace

AnalysisResult analysis::analyze(TermTable &Terms, const sl::Entailment &E) {
  AnalysisResult Out;
  Symbol Nil = Terms.nil();

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

  return Out;
}
