//===- tests/fuzz/TransformerTest.cpp ----------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
//
// Verifies each metamorphic transformer's declared verdict relation
// against the SLP prover on a fixed seed corpus, and the catalogue's
// algebra (relation composition, violation predicate, canonical-key
// preservation of alpha renamings).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"
#include "fuzz/Transformers.h"

#include "core/Backend.h"
#include "engine/CanonicalKey.h"
#include "sl/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace slp;
using fuzz::Relation;
using fuzz::TransformerKind;

namespace {

core::Verdict proveText(const std::string &Text) {
  core::SlpBackend Backend;
  core::ProofTask Task;
  Task.Text = Text;
  Fuel F;
  core::BackendResult R = Backend.prove(Task, F);
  EXPECT_TRUE(R.Parsed) << Text << ": " << R.Error;
  return R.V;
}

/// A small fixed corpus: hand-picked valid/invalid/structured cases
/// plus the generated distributions, so every transformer gets inputs
/// it applies to.
std::vector<std::string> fixedCorpus() {
  std::vector<std::string> Corpus = {
      "lseg(x, y) * next(y, z) & x != y |- lseg(x, z)",
      "next(x, y) * next(y, z) |- lseg(x, z)",
      "x = y & lseg(x, nil) |- lseg(y, nil)",
      "lseg(x, y) |- lseg(x, z)",
      "next(x, nil) |- lseg(x, nil) * lseg(nil, nil)",
      "x != y & x != z & y != z & next(x, y) * next(y, z) |- next(x, y)",
  };
  for (std::string &S : fuzz::defaultSeedCorpus(3, 4, 4))
    Corpus.push_back(std::move(S));
  return Corpus;
}

} // namespace

TEST(Relation, ComposeAlgebra) {
  using fuzz::compose;
  // Equal is the identity.
  for (Relation R : {Relation::Equal, Relation::ImpliesValid,
                     Relation::ImpliesInvalid, Relation::None}) {
    EXPECT_EQ(compose(Relation::Equal, R), R);
    EXPECT_EQ(compose(R, Relation::Equal), R);
  }
  // Same directions compose; opposite directions cancel.
  EXPECT_EQ(compose(Relation::ImpliesValid, Relation::ImpliesValid),
            Relation::ImpliesValid);
  EXPECT_EQ(compose(Relation::ImpliesInvalid, Relation::ImpliesInvalid),
            Relation::ImpliesInvalid);
  EXPECT_EQ(compose(Relation::ImpliesValid, Relation::ImpliesInvalid),
            Relation::None);
  EXPECT_EQ(compose(Relation::None, Relation::Equal), Relation::None);
}

TEST(Relation, ViolatesPredicate) {
  using core::Verdict;
  using fuzz::violates;
  EXPECT_TRUE(violates(Relation::Equal, Verdict::Valid, Verdict::Invalid));
  EXPECT_FALSE(violates(Relation::Equal, Verdict::Valid, Verdict::Valid));
  // Directional relations only fire in their direction.
  EXPECT_TRUE(
      violates(Relation::ImpliesValid, Verdict::Valid, Verdict::Invalid));
  EXPECT_FALSE(
      violates(Relation::ImpliesValid, Verdict::Invalid, Verdict::Valid));
  EXPECT_TRUE(
      violates(Relation::ImpliesInvalid, Verdict::Invalid, Verdict::Valid));
  EXPECT_FALSE(
      violates(Relation::ImpliesInvalid, Verdict::Valid, Verdict::Invalid));
  // Unknown (fuel exhaustion) never violates anything.
  for (Relation R : {Relation::Equal, Relation::ImpliesValid,
                     Relation::ImpliesInvalid, Relation::None}) {
    EXPECT_FALSE(violates(R, Verdict::Unknown, Verdict::Valid));
    EXPECT_FALSE(violates(R, Verdict::Valid, Verdict::Unknown));
  }
}

TEST(Transformers, CatalogueIsDense) {
  ASSERT_EQ(fuzz::catalogue().size(), fuzz::NumTransformers);
  for (size_t K = 0; K != fuzz::NumTransformers; ++K)
    EXPECT_EQ(static_cast<size_t>(fuzz::catalogue()[K].Kind), K);
}

TEST(Transformers, ApplyIsDeterministic) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  sl::ParseResult P = sl::parseEntailment(
      Terms, "x != y & lseg(x, y) * next(y, z) |- lseg(x, z)");
  ASSERT_TRUE(P.ok());
  for (const fuzz::Transformer &T : fuzz::catalogue()) {
    std::optional<sl::Entailment> A =
        fuzz::apply(T.Kind, Terms, *P.Value, 42);
    std::optional<sl::Entailment> B =
        fuzz::apply(T.Kind, Terms, *P.Value, 42);
    ASSERT_EQ(A.has_value(), B.has_value()) << T.Name;
    if (A) {
      EXPECT_EQ(sl::str(Terms, *A), sl::str(Terms, *B)) << T.Name;
    }
  }
}

// The heart of the subsystem: on the fixed corpus, every applicable
// transformer's output verdict must satisfy its declared relation
// against SLP (sound and complete, so its verdicts are ground truth).
TEST(Transformers, RelationsHoldAgainstSlp) {
  for (const std::string &SeedText : fixedCorpus()) {
    SymbolTable Syms;
    TermTable Terms(Syms);
    sl::ParseResult P = sl::parseEntailment(Terms, SeedText);
    ASSERT_TRUE(P.ok()) << SeedText;
    core::Verdict In = proveText(sl::str(Terms, *P.Value));
    ASSERT_NE(In, core::Verdict::Unknown) << SeedText;
    for (const fuzz::Transformer &T : fuzz::catalogue()) {
      for (uint64_t LinkSeed : {1ull, 99ull, 123456789ull}) {
        std::optional<sl::Entailment> Var =
            fuzz::apply(T.Kind, Terms, *P.Value, LinkSeed);
        if (!Var)
          continue;
        std::string VarText = sl::str(Terms, *Var);
        core::Verdict Out = proveText(VarText);
        EXPECT_FALSE(fuzz::violates(T.Rel, In, Out))
            << T.Name << " seed " << LinkSeed << ":\n  " << SeedText
            << "  (" << core::verdictName(In) << ")\n  " << VarText
            << "  (" << core::verdictName(Out) << ")";
      }
    }
  }
}

// Alpha renaming must be invisible to the engine's memoization key:
// a cache that distinguished alpha-variants would re-prove them.
TEST(Transformers, AlphaRenamePreservesCanonicalKey) {
  ASSERT_TRUE(
      fuzz::transformer(TransformerKind::AlphaRename).PreservesCanonicalKey);
  for (const std::string &SeedText : fixedCorpus()) {
    SymbolTable Syms;
    TermTable Terms(Syms);
    sl::ParseResult P = sl::parseEntailment(Terms, SeedText);
    ASSERT_TRUE(P.ok()) << SeedText;
    std::string Key = engine::CanonicalQuery::of(*P.Value).key();
    for (uint64_t LinkSeed : {7ull, 1000ull}) {
      std::optional<sl::Entailment> Var = fuzz::apply(
          TransformerKind::AlphaRename, Terms, *P.Value, LinkSeed);
      if (!Var)
        continue;
      EXPECT_EQ(engine::CanonicalQuery::of(*Var).key(), Key)
          << SeedText << " -> " << sl::str(Terms, *Var);
      // And the renaming must actually rename (injectively, so the
      // rendered text changes whenever a non-nil constant occurs).
      EXPECT_NE(sl::str(Terms, *Var), sl::str(Terms, *P.Value));
    }
  }
}

// Transformers that add atoms must use names absent from the input;
// a clash would silently change the formula's meaning.
TEST(Transformers, FreshNamesAreFresh) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  // fz1/fz2 deliberately taken: the generator must skip them.
  sl::ParseResult P = sl::parseEntailment(
      Terms, "next(fz1, fz2) * lseg(fz2, fz3) |- lseg(fz1, fz3)");
  ASSERT_TRUE(P.ok());
  std::vector<Symbol> Old;
  P.Value->collectTerms(Old);
  for (uint64_t LinkSeed : {1ull, 2ull, 3ull}) {
    std::optional<sl::Entailment> Var =
        fuzz::apply(TransformerKind::FrameWrap, Terms, *P.Value, LinkSeed);
    ASSERT_TRUE(Var.has_value());
    ASSERT_EQ(Var->Lhs.Spatial.size(), 3u);
    ASSERT_EQ(Var->Rhs.Spatial.size(), 2u);
    // Whatever the variant mentions beyond the original terms is the
    // frame atom's operands — and must not alias any original term.
    std::vector<Symbol> New;
    Var->collectTerms(New);
    size_t FreshCount = 0;
    for (Symbol T : New)
      if (std::find(Old.begin(), Old.end(), T) == Old.end()) {
        ++FreshCount;
        EXPECT_NE(Terms.str(T), "fz1");
        EXPECT_NE(Terms.str(T), "fz2");
        EXPECT_NE(Terms.str(T), "fz3");
      }
    EXPECT_EQ(FreshCount, 2u);
  }
}

// Inapplicability contract: appliers return nullopt rather than
// fabricating a no-op variant that would dilute the campaign.
TEST(Transformers, InapplicableCasesReturnNullopt) {
  SymbolTable Syms;
  TermTable Terms(Syms);
  // No pure atoms, single spatial atom per side, only nil mentioned...
  sl::ParseResult P = sl::parseEntailment(Terms, "emp |- emp");
  ASSERT_TRUE(P.ok());
  EXPECT_FALSE(
      fuzz::apply(TransformerKind::AlphaRename, Terms, *P.Value, 1));
  EXPECT_FALSE(
      fuzz::apply(TransformerKind::StarShuffle, Terms, *P.Value, 1));
  EXPECT_FALSE(
      fuzz::apply(TransformerKind::PureShuffle, Terms, *P.Value, 1));
  EXPECT_FALSE(
      fuzz::apply(TransformerKind::LhsStrengthen, Terms, *P.Value, 1));
  EXPECT_FALSE(
      fuzz::apply(TransformerKind::RhsWeaken, Terms, *P.Value, 1));
  EXPECT_FALSE(
      fuzz::apply(TransformerKind::LhsWeaken, Terms, *P.Value, 1));
  // Frame wrapping needs nothing from the input: always applicable.
  EXPECT_TRUE(fuzz::apply(TransformerKind::FrameWrap, Terms, *P.Value, 1));
}

// Every transformed variant must survive the render/parse round trip
// (this is also checked per-variant by the campaign, as a finding).
TEST(Transformers, VariantsRoundTripThroughParser) {
  for (const std::string &SeedText : fixedCorpus()) {
    SymbolTable Syms;
    TermTable Terms(Syms);
    sl::ParseResult P = sl::parseEntailment(Terms, SeedText);
    ASSERT_TRUE(P.ok()) << SeedText;
    for (const fuzz::Transformer &T : fuzz::catalogue()) {
      std::optional<sl::Entailment> Var =
          fuzz::apply(T.Kind, Terms, *P.Value, 5);
      if (!Var)
        continue;
      std::string Text = sl::str(Terms, *Var);
      SymbolTable Syms2;
      TermTable Terms2(Syms2);
      sl::ParseResult Q = sl::parseEntailment(Terms2, Text);
      EXPECT_TRUE(Q.ok()) << T.Name << ": " << Text;
      if (Q.ok()) {
        EXPECT_EQ(sl::str(Terms2, *Q.Value), Text);
      }
    }
  }
}
