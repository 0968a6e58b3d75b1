//===- fuzz/Transformers.cpp - Metamorphic entailment transformers -----------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Transformers.h"

#include "support/Random.h"

#include <algorithm>
#include <string>
#include <unordered_set>

using namespace slp;
using namespace slp::fuzz;

const char *fuzz::relationName(Relation R) {
  switch (R) {
  case Relation::Equal:
    return "equal";
  case Relation::ImpliesValid:
    return "implies-valid";
  case Relation::ImpliesInvalid:
    return "implies-invalid";
  case Relation::None:
    return "none";
  }
  return "none";
}

Relation fuzz::compose(Relation A, Relation B) {
  if (A == Relation::None || B == Relation::None)
    return Relation::None;
  if (A == Relation::Equal)
    return B;
  if (B == Relation::Equal)
    return A;
  return A == B ? A : Relation::None;
}

bool fuzz::violates(Relation R, core::Verdict In, core::Verdict Out) {
  if (In == core::Verdict::Unknown || Out == core::Verdict::Unknown)
    return false;
  switch (R) {
  case Relation::Equal:
    return In != Out;
  case Relation::ImpliesValid:
    return In == core::Verdict::Valid && Out == core::Verdict::Invalid;
  case Relation::ImpliesInvalid:
    return In == core::Verdict::Invalid && Out == core::Verdict::Valid;
  case Relation::None:
    return false;
  }
  return false;
}

const std::vector<Transformer> &fuzz::catalogue() {
  static const std::vector<Transformer> Cat = {
      {TransformerKind::AlphaRename, "alpha-rename", Relation::Equal, true},
      {TransformerKind::StarShuffle, "star-shuffle", Relation::Equal, false},
      {TransformerKind::PureShuffle, "pure-shuffle", Relation::Equal, false},
      {TransformerKind::FrameWrap, "frame-wrap", Relation::Equal, false},
      {TransformerKind::LhsStrengthen, "lhs-strengthen",
       Relation::ImpliesValid, false},
      {TransformerKind::RhsWeaken, "rhs-weaken", Relation::ImpliesValid,
       false},
      {TransformerKind::RhsStrengthen, "rhs-strengthen",
       Relation::ImpliesInvalid, false},
      {TransformerKind::LhsWeaken, "lhs-weaken", Relation::ImpliesInvalid,
       false},
  };
  return Cat;
}

const Transformer &fuzz::transformer(TransformerKind K) {
  return catalogue()[static_cast<size_t>(K)];
}

namespace {

/// The distinct terms of \p E in first-occurrence order, nil included
/// when it occurs.
std::vector<Symbol> distinctTerms(const sl::Entailment &E) {
  std::vector<Symbol> Out;
  E.collectTerms(Out);
  return Out;
}

/// Names already taken inside \p E; fresh constants must avoid them
/// (and the parser's keywords) so renamings stay injective and the
/// rendered variant re-parses to the same AST.
std::unordered_set<std::string> takenNames(const TermTable &Terms,
                                           const sl::Entailment &E) {
  std::unordered_set<std::string> Taken = {"true", "false", "emp",
                                           "next",  "lseg", "nil"};
  for (Symbol T : distinctTerms(E))
    Taken.insert(Terms.str(T));
  return Taken;
}

/// Interns a constant named fz<k> that does not occur in \p Taken,
/// advancing \p Counter past the chosen k and recording the new name.
Symbol freshConstant(TermTable &Terms, std::unordered_set<std::string> &Taken,
                     unsigned &Counter) {
  for (;;) {
    std::string Name = "fz" + std::to_string(++Counter);
    if (Taken.insert(Name).second)
      return Terms.constant(Name);
  }
}

template <typename T> void shuffle(std::vector<T> &V, SplitMix64 &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.below(I)]);
}

std::optional<sl::Entailment> alphaRename(TermTable &Terms,
                                          const sl::Entailment &E,
                                          SplitMix64 &Rng) {
  std::vector<Symbol> Old;
  for (Symbol T : distinctTerms(E))
    if (!T.isNil())
      Old.push_back(T);
  if (Old.empty())
    return std::nullopt;

  std::unordered_set<std::string> Taken = takenNames(Terms, E);
  unsigned Counter = 0;
  std::vector<Symbol> Fresh;
  Fresh.reserve(Old.size());
  for (size_t I = 0; I != Old.size(); ++I)
    Fresh.push_back(freshConstant(Terms, Taken, Counter));
  // A random injective assignment: the fresh names, shuffled.
  shuffle(Fresh, Rng);

  // The new name of each old constant, by symbol id.
  std::vector<Symbol> Map;
  for (size_t I = 0; I != Old.size(); ++I) {
    if (Old[I].id() >= Map.size())
      Map.resize(Old[I].id() + 1);
    Map[Old[I].id()] = Fresh[I];
  }
  auto Rename = [&](Symbol T) { return T.isNil() ? T : Map[T.id()]; };

  sl::Entailment Out = E;
  for (sl::Assertion *A : {&Out.Lhs, &Out.Rhs}) {
    for (sl::PureAtom &P : A->Pure) {
      P.Lhs = Rename(P.Lhs);
      P.Rhs = Rename(P.Rhs);
    }
    for (sl::HeapAtom &H : A->Spatial) {
      H.Addr = Rename(H.Addr);
      H.Val = Rename(H.Val);
    }
  }
  return Out;
}

std::optional<sl::Entailment> starShuffle(const sl::Entailment &E,
                                          SplitMix64 &Rng) {
  if (E.Lhs.Spatial.size() < 2 && E.Rhs.Spatial.size() < 2)
    return std::nullopt;
  sl::Entailment Out = E;
  shuffle(Out.Lhs.Spatial, Rng);
  shuffle(Out.Rhs.Spatial, Rng);
  return Out;
}

std::optional<sl::Entailment> pureShuffle(const sl::Entailment &E,
                                          SplitMix64 &Rng) {
  if (E.Lhs.Pure.size() < 2 && E.Rhs.Pure.size() < 2)
    return std::nullopt;
  sl::Entailment Out = E;
  shuffle(Out.Lhs.Pure, Rng);
  shuffle(Out.Rhs.Pure, Rng);
  return Out;
}

std::optional<sl::Entailment> frameWrap(TermTable &Terms,
                                        const sl::Entailment &E,
                                        SplitMix64 &Rng) {
  std::unordered_set<std::string> Taken = takenNames(Terms, E);
  unsigned Counter = 0;
  Symbol A = freshConstant(Terms, Taken, Counter);
  Symbol B = freshConstant(Terms, Taken, Counter);
  sl::HeapAtom Frame = Rng.chance(0.5) ? sl::HeapAtom::next(A, B)
                                       : sl::HeapAtom::lseg(A, B);
  bool Front = Rng.chance(0.5);
  sl::Entailment Out = E;
  for (sl::Assertion *Side : {&Out.Lhs, &Out.Rhs}) {
    if (Front)
      Side->Spatial.insert(Side->Spatial.begin(), Frame);
    else
      Side->Spatial.push_back(Frame);
  }
  return Out;
}

/// Picks two distinct terms of \p E (the atom's operands) and a
/// polarity; nullopt when fewer than two distinct terms occur.
std::optional<sl::PureAtom> randomPureAtom(const sl::Entailment &E,
                                           SplitMix64 &Rng) {
  std::vector<Symbol> Pool = distinctTerms(E);
  if (Pool.size() < 2)
    return std::nullopt;
  size_t I = Rng.below(Pool.size());
  size_t J = Rng.below(Pool.size() - 1);
  if (J >= I)
    ++J;
  return Rng.chance(0.5) ? sl::PureAtom::eq(Pool[I], Pool[J])
                         : sl::PureAtom::ne(Pool[I], Pool[J]);
}

std::optional<sl::Entailment> addPure(const sl::Entailment &E,
                                      SplitMix64 &Rng, bool ToLhs) {
  std::optional<sl::PureAtom> Atom = randomPureAtom(E, Rng);
  if (!Atom)
    return std::nullopt;
  sl::Entailment Out = E;
  (ToLhs ? Out.Lhs : Out.Rhs).Pure.push_back(*Atom);
  return Out;
}

std::optional<sl::Entailment> dropPure(const sl::Entailment &E,
                                       SplitMix64 &Rng, bool FromLhs) {
  const std::vector<sl::PureAtom> &Pure =
      (FromLhs ? E.Lhs : E.Rhs).Pure;
  if (Pure.empty())
    return std::nullopt;
  size_t I = Rng.below(Pure.size());
  sl::Entailment Out = E;
  std::vector<sl::PureAtom> &OutPure = (FromLhs ? Out.Lhs : Out.Rhs).Pure;
  OutPure.erase(OutPure.begin() + static_cast<ptrdiff_t>(I));
  return Out;
}

} // namespace

std::optional<sl::Entailment> fuzz::apply(TransformerKind K,
                                          TermTable &Terms,
                                          const sl::Entailment &E,
                                          uint64_t LinkSeed) {
  SplitMix64 Rng(LinkSeed);
  switch (K) {
  case TransformerKind::AlphaRename:
    return alphaRename(Terms, E, Rng);
  case TransformerKind::StarShuffle:
    return starShuffle(E, Rng);
  case TransformerKind::PureShuffle:
    return pureShuffle(E, Rng);
  case TransformerKind::FrameWrap:
    return frameWrap(Terms, E, Rng);
  case TransformerKind::LhsStrengthen:
    return addPure(E, Rng, /*ToLhs=*/true);
  case TransformerKind::RhsWeaken:
    return dropPure(E, Rng, /*FromLhs=*/false);
  case TransformerKind::RhsStrengthen:
    return addPure(E, Rng, /*ToLhs=*/false);
  case TransformerKind::LhsWeaken:
    return dropPure(E, Rng, /*FromLhs=*/true);
  }
  return std::nullopt;
}
