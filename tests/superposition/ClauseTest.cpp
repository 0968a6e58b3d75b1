//===- tests/superposition/ClauseTest.cpp -------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "superposition/Clause.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <functional>
#include <optional>
#include <string>
#include <vector>

using namespace slp;
using namespace slp::sup;

namespace {

class ClauseTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
  Symbol A = Terms.constant("a");
  Symbol B = Terms.constant("b");
  Symbol C = Terms.constant("c");
};

/// A clause's literals, sorted descending as Saturation::sortedLits
/// lists them.
std::vector<OrientedLiteral> sortedLiterals(ClauseView C) {
  std::vector<OrientedLiteral> Lits;
  for (const Equation &E : C.neg())
    Lits.emplace_back(E, /*Negative=*/true);
  for (const Equation &E : C.pos())
    Lits.emplace_back(E, /*Negative=*/false);
  std::sort(Lits.begin(), Lits.end(), std::greater<>());
  return Lits;
}

/// The clause order (the multiset extension of the literal order), on
/// the sorted lists as Saturation::clauseOrderLessUncounted compares
/// them.
std::strong_ordering compareClauses(ClauseView A, ClauseView B) {
  std::vector<OrientedLiteral> LA = sortedLiterals(A), LB = sortedLiterals(B);
  return std::lexicographical_compare_three_way(LA.begin(), LA.end(),
                                                LB.begin(), LB.end());
}

} // namespace

TEST_F(ClauseTest, EquationCanonicalOrientation) {
  Equation E1(A, B);
  Equation E2(B, A);
  EXPECT_EQ(E1, E2);
  EXPECT_EQ(E1.hash(), E2.hash());
  EXPECT_EQ(E1.other(A), B);
  EXPECT_EQ(E1.other(B), A);
  EXPECT_FALSE(E1.trivial());
  EXPECT_TRUE(Equation(A, A).trivial());
}

TEST_F(ClauseTest, NilIsTheSmallerSideWhenInternedLast) {
  // In a fresh table x is interned before nil is ever asked for; nil is
  // still symbol 0, so it sorts first and is the smaller side.
  SymbolTable FreshSymbols;
  TermTable Fresh(FreshSymbols);
  Symbol X = Fresh.constant("x");
  Symbol Nil = Fresh.nil();
  Equation E(X, Nil);
  EXPECT_EQ(E.lhs(), Nil);
  EXPECT_EQ(E.rhs(), X);
  OrientedLiteral L(E, /*Negative=*/true);
  EXPECT_EQ(L.max(), X);
  EXPECT_EQ(L.min(), Nil);
  EXPECT_TRUE(L.negative());
}

TEST_F(ClauseTest, ClauseCanonicalization) {
  Clause C1({Equation(A, B), Equation(B, A), Equation(A, B)},
            {Equation(B, C)});
  EXPECT_EQ(C1.neg().size(), 1u); // Duplicates merged.
  Clause C2({Equation(B, A)}, {Equation(C, B)});
  EXPECT_EQ(C1, C2);
  EXPECT_EQ(C1.fingerprint(), C2.fingerprint());
}

TEST_F(ClauseTest, EmptyClause) {
  Clause E({}, {});
  EXPECT_TRUE(E.empty());
  EXPECT_EQ(E.str(Terms), "[]");
}

TEST_F(ClauseTest, TautologyDetection) {
  EXPECT_TRUE(Clause({}, {Equation(A, A)}).isTautology());
  EXPECT_TRUE(Clause({Equation(A, B)}, {Equation(B, A)}).isTautology());
  EXPECT_FALSE(Clause({Equation(A, A)}, {}).isTautology());
  EXPECT_FALSE(Clause({Equation(A, B)}, {Equation(B, C)}).isTautology());
}

TEST_F(ClauseTest, Subsumption) {
  Clause Small({}, {Equation(A, B)});
  Clause Big({Equation(B, C)}, {Equation(A, B), Equation(A, C)});
  EXPECT_TRUE(Small.subsumes(Big));
  EXPECT_FALSE(Big.subsumes(Small));
  EXPECT_TRUE(Small.subsumes(Small));
}

// The saturation engine merges a conclusion from its premises' sorted
// sides instead of sorting a concatenation. Over random premise pairs
// on 12 constants, the merge must give exactly the sides and the
// fingerprint of the canonical constructor on the unsorted
// concatenation, the skipped equation removed from its own run only.
TEST_F(ClauseTest, MergeMatchesCanonicalConstructor) {
  std::vector<Symbol> Consts;
  for (int I = 0; I != 12; ++I)
    Consts.push_back(Terms.constant("k" + std::to_string(I)));
  SplitMix64 Rng(25);
  auto RandomEq = [&] {
    return Equation(Consts[Rng.below(12)], Consts[Rng.below(12)]);
  };
  auto RandomSide = [&] {
    std::vector<Equation> Side;
    for (uint64_t N = Rng.below(6); N != 0; --N)
      Side.push_back(RandomEq());
    canonicalizeSide(Side);
    return Side;
  };
  // A skip is absent, one its run lacks, or the run's front, back or
  // any member.
  auto RandomSkip = [&](const std::vector<Equation> &Run)
      -> std::optional<Equation> {
    uint64_t Pick = Rng.below(6);
    if (Pick == 0)
      return std::nullopt;
    if (Pick == 1 || Run.empty())
      return RandomEq();
    if (Pick == 2)
      return Run.front();
    if (Pick == 3)
      return Run.back();
    return Run[Rng.below(Run.size())];
  };

  auto In = [](const std::vector<Equation> &Run, std::optional<Equation> E) {
    return E && std::find(Run.begin(), Run.end(), *E) != Run.end();
  };

  // How often each case the merge must get right came up.
  unsigned SkipInBoth = 0, ExtraPresent = 0, TrivialExtra = 0, EmptySide = 0;
  unsigned SkipFront = 0, SkipBack = 0, SkipAbsent = 0, EqualSkips = 0,
           ExtraSkipped = 0;
  for (int Round = 0; Round != 1000; ++Round) {
    std::vector<Equation> Runs[2][2]; // [premise][0 = Γ, 1 = ∆]
    std::optional<Equation> Skips[2][2], Extras[2];
    for (int Side = 0; Side != 2; ++Side) {
      for (int P = 0; P != 2; ++P) {
        Runs[P][Side] = RandomSide();
        Skips[P][Side] = RandomSkip(Runs[P][Side]);
      }
      // The first premise's skip also present in the second premise.
      if (Skips[0][Side] && Rng.below(3) == 0) {
        Runs[1][Side].push_back(*Skips[0][Side]);
        canonicalizeSide(Runs[1][Side]);
      }
      // Both premises skipping the same equation.
      if (Skips[0][Side] && Rng.below(5) == 0)
        Skips[1][Side] = Skips[0][Side];
      // The inserted equation: none, one already present, a trivial
      // one, a skipped one, or any.
      const std::vector<Equation> &From = Runs[Rng.below(2)][Side];
      switch (Rng.below(5)) {
      case 0:
        break;
      case 1:
        if (!From.empty()) {
          Extras[Side] = From[Rng.below(From.size())];
          break;
        }
        [[fallthrough]];
      case 2: {
        Symbol K = Consts[Rng.below(12)];
        Extras[Side] = Equation(K, K);
        break;
      }
      case 3:
        if (std::optional<Equation> S = Skips[Rng.below(2)][Side]) {
          Extras[Side] = S;
          break;
        }
        [[fallthrough]];
      default:
        Extras[Side] = RandomEq();
      }
    }

    std::vector<Equation> Concat[2], Merged[2];
    for (int Side = 0; Side != 2; ++Side) {
      for (int P = 0; P != 2; ++P) {
        const std::vector<Equation> &Run = Runs[P][Side];
        for (const Equation &E : Run)
          if (E != Skips[P][Side])
            Concat[Side].push_back(E);
        SkipAbsent += !In(Run, Skips[P][Side]);
        SkipFront += !Run.empty() && Skips[P][Side] == Run.front();
        SkipBack += Run.size() > 1 && Skips[P][Side] == Run.back();
      }
      if (Extras[Side]) {
        ExtraPresent += In(Concat[Side], Extras[Side]);
        TrivialExtra += Extras[Side]->trivial();
        ExtraSkipped += Extras[Side] == Skips[0][Side] ||
                        Extras[Side] == Skips[1][Side];
        Concat[Side].push_back(*Extras[Side]);
      }
      SkipInBoth += In(Runs[0][Side], Skips[0][Side]) &&
                    In(Runs[1][Side], Skips[0][Side]);
      EqualSkips += Skips[0][Side] && Skips[0][Side] == Skips[1][Side];
      EmptySide += Runs[0][Side].empty() || Runs[1][Side].empty();
      // Unsorted, as the inference rules used to assemble it.
      std::reverse(Concat[Side].begin(), Concat[Side].end());
      mergeCanonical(Merged[Side], Runs[0][Side], Skips[0][Side],
                     Runs[1][Side], Skips[1][Side], Extras[Side]);
    }

    Clause Ref(Concat[0], Concat[1]);
    ASSERT_EQ(Merged[0], Ref.neg()) << "round " << Round;
    ASSERT_EQ(Merged[1], Ref.pos()) << "round " << Round;
    EXPECT_EQ(clauseFingerprint(Merged[0], Merged[1]), Ref.fingerprint())
        << "round " << Round;
  }
  EXPECT_GT(SkipInBoth, 20u);
  EXPECT_GT(ExtraPresent, 20u);
  EXPECT_GT(TrivialExtra, 20u);
  EXPECT_GT(EmptySide, 20u);
  EXPECT_GT(SkipFront, 20u);
  EXPECT_GT(SkipBack, 20u);
  EXPECT_GT(SkipAbsent, 20u);
  EXPECT_GT(EqualSkips, 20u);
  EXPECT_GT(ExtraSkipped, 20u);
}

TEST_F(ClauseTest, LiteralOrderingNegativeAboveSameEquation) {
  OrientedLiteral Pos(Equation(A, B), /*Negative=*/false);
  OrientedLiteral Neg(Equation(A, B), /*Negative=*/true);
  EXPECT_GT(Neg, Pos);
  EXPECT_LT(Pos, Neg);
}

TEST_F(ClauseTest, LiteralOrderingByMaxTerm) {
  // c > b > a in creation-order precedence.
  OrientedLiteral AB(Equation(A, B), false);
  OrientedLiteral AC(Equation(A, C), false);
  EXPECT_GT(AC, AB);
  // The larger side decides before the polarity, and the polarity
  // before the smaller side.
  EXPECT_GT(AC, OrientedLiteral(Equation(A, B), true));
  EXPECT_GT(OrientedLiteral(Equation(A, C), true),
            OrientedLiteral(Equation(B, C), false));
}

TEST_F(ClauseTest, ClauseOrderingMultisetExtension) {
  Clause C1({}, {Equation(A, B)});
  Clause C2({}, {Equation(A, C)});
  EXPECT_EQ(compareClauses(C2, C1), std::strong_ordering::greater);
  EXPECT_EQ(compareClauses(C1, C1), std::strong_ordering::equal);
  // A proper sub-multiset is smaller.
  Clause C3({}, {Equation(A, B), Equation(A, C)});
  EXPECT_EQ(compareClauses(C1, C3), std::strong_ordering::less);
  EXPECT_EQ(compareClauses(C3, C2), std::strong_ordering::greater);
}
