//===- core/Prover.cpp - The SLP entailment prover ---------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/Prover.h"

#include "core/ModelAdapter.h"
#include "core/Normalization.h"
#include "core/Unfolding.h"
#include "core/WellFormedness.h"

using namespace slp;
using namespace slp::core;

namespace {

/// Hard cap on outer iterations; a pure safety net, the algorithm
/// terminates on its own (Theorem 5.1).
constexpr unsigned MaxOuterIterations = 1u << 20;

} // namespace

const char *core::verdictName(Verdict V) {
  switch (V) {
  case Verdict::Valid:
    return "valid";
  case Verdict::Invalid:
    return "invalid";
  case Verdict::Unknown:
    return "unknown";
  }
  return "?";
}

SlpProver::SlpProver(TermTable &Terms, ProverOptions Opts)
    : Terms(Terms), Opts(Opts) {}

void SlpProver::onTermTableReset() {
  if (Sat)
    Sat->clear(); // Stored clauses hold pointers to dropped terms.
  clearProvenance();
}

void SlpProver::clearProvenance() {
  Provs.clear();
  PosSnaps.clear();
  NegSnaps.clear();
}

bool SlpProver::addPure(PureInput In, uint32_t PosSnap, uint32_t NegSnap) {
  Provenance P{In.Rule, !In.Neg.empty(), PosSnap, NegSnap, {}, {}};
  if (In.Rule == InputRule::Cnf) {
    const sup::Equation &Eq = P.Negative ? In.Neg[0] : In.Pos[0];
    P.Lhs = Eq.lhs();
    P.Rhs = Eq.rhs();
  }
  size_t Stored = Sat->numClauses();
  auto [Id, New] = Sat->addInput(std::move(In.Neg), std::move(In.Pos),
                                 static_cast<uint32_t>(Provs.size()));
  (void)Id;
  // Rejected and revived duplicates write no justification, so only an
  // appended clause carries the tag.
  if (Sat->numClauses() != Stored)
    Provs.push_back(P);
  return New;
}

std::vector<std::string> SlpProver::inputLabels() const {
  std::vector<std::string> Labels;
  Labels.reserve(Provs.size());
  for (const Provenance &P : Provs) {
    switch (P.Rule) {
    case InputRule::Cnf:
      Labels.push_back(
          cnfLabel(Terms, sup::Equation(P.Lhs, P.Rhs), P.Negative));
      break;
    case InputRule::SR:
      Labels.push_back(
          unfoldingLabel(Terms, PosSnaps[P.PosSnap], NegSnaps[P.NegSnap]));
      break;
    default:
      Labels.push_back(
          wellFormednessLabel(Terms, P.Rule, PosSnaps[P.PosSnap]));
      break;
    }
  }
  return Labels;
}

ProveResult SlpProver::prove(const sl::Entailment &E, Fuel &F) {
  // Fresh clause database per query; the Saturation instance itself is
  // reused (clear() restores the freshly constructed state, keeping
  // the index pools' allocations warm across queries).
  if (Sat)
    Sat->clear();
  else
    Sat = std::make_unique<sup::Saturation>(Terms, Opts.Sat);
  clearProvenance();

  ProveResult Result;
  ClausalForm CF = cnf(E);

  // Line 2: S := Pure(cnf(E)).
  for (PureInput &In : CF.PureClauses)
    addPure(std::move(In));

  // All constants of the query (nil included) for the induced stack.
  std::vector<Symbol> Constants;
  Constants.push_back(Terms.nil());
  E.collectTerms(Constants);

  auto Finish = [&](Verdict V, std::optional<sl::CounterModel> Cex) {
    Result.V = V;
    Result.Cex = std::move(Cex);
    Result.Stats.PureClauses = Sat->numClauses();
    Result.Stats.FuelUsed = F.used();
    Result.Stats.Sat = Sat->stats();
    return Result;
  };

  for (unsigned Outer = 0; Outer != MaxOuterIterations; ++Outer) {
    ++Result.Stats.OuterIterations;

    // Inner loop (lines 4-10): saturate, model, normalize, W-rules.
    std::optional<GroundRewriteSystem> R;
    PosSpatialClause C;
    for (;;) {
      ++Result.Stats.InnerIterations;
      // Lines 5-7: saturate and extract ⟨R, g⟩. The model-guided mode
      // stops at the first *certified* model, which is all the spatial
      // phases need (see Saturation::saturateModelGuided).
      switch (Sat->saturateModelGuided(F, R)) {
      case sup::SatResult::Unsatisfiable:
        return Finish(Verdict::Valid, std::nullopt); // Line 6.
      case sup::SatResult::OutOfFuel:
        return Finish(Verdict::Unknown, std::nullopt);
      case sup::SatResult::Saturated:
        break;
      }
      C = normalize(*Sat, *R, CF.PosSigma); // Line 8.

      // Line 9: S := S* ∪ PCns_W({C}); exit on fixpoint (line 10).
      // The round's stored consequences share one snapshot of C.
      bool AnyNew = false;
      size_t Recorded = Provs.size();
      uint32_t Snap = static_cast<uint32_t>(PosSnaps.size());
      for (PureInput &In : wellFormednessConsequences(C))
        AnyNew |= addPure(std::move(In), Snap);
      if (Provs.size() != Recorded)
        PosSnaps.push_back(C);
      if (!AnyNew)
        break;
    }
    assert(isWellFormed(C.Sigma) &&
           "inner fixpoint must leave Σ_R well-formed (Lemma 4.3)");

    sl::Stack SR = inducedStack(*R, Constants);

    // Line 11: if R does not model Π', (s_R, gr_R Σ_R) refutes E.
    bool ModelsRhsPure = true;
    for (const sup::Equation &Eq : CF.NegSigma.Neg) // Π'+
      ModelsRhsPure &= R->equivalent(Eq.lhs(), Eq.rhs());
    for (const sup::Equation &Eq : CF.NegSigma.Pos) // Π'−
      ModelsRhsPure &= !R->equivalent(Eq.lhs(), Eq.rhs());
    if (!ModelsRhsPure)
      return Finish(Verdict::Invalid,
                    sl::CounterModel{SR, graphHeap(SR, C.Sigma)});

    // Line 12: normalize the negative spatial clause.
    NegSpatialClause CPrime = normalize(*Sat, *R, CF.NegSigma);

    // Line 13: unfolding; either one new pure clause or a countermodel
    // (line 14, via the constructive version of Lemma 4.4).
    UnfoldResult U = unfold(SR, C, CPrime);
    if (U.K == UnfoldResult::Kind::CounterModel)
      return Finish(Verdict::Invalid,
                    sl::CounterModel{SR, std::move(U.Cex)});

    if (!addPure(std::move(U.Derived), static_cast<uint32_t>(PosSnaps.size()),
                 static_cast<uint32_t>(NegSnaps.size()))) {
      // Unreachable in theory: a clause derived by a successful walk
      // is falsified by R while every stored clause is satisfied by R.
      assert(false && "unfolding derived a clause that was not new");
      return Finish(Verdict::Unknown, std::nullopt);
    }
    PosSnaps.push_back(C);
    NegSnaps.push_back(CPrime);
  }
  return Finish(Verdict::Unknown, std::nullopt);
}
