//===- tests/engine/PortfolioTest.cpp -------------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend abstraction and the racing portfolio: verdict mapping
/// per backend, the first-definitive-verdict rule (the incomplete
/// unfolder's NotProved never wins), cooperative cancellation of race
/// losers, tally bookkeeping, and the engine's --backend routing.
///
//===----------------------------------------------------------------------===//

#include "baselines/Backends.h"
#include "engine/BatchProver.h"
#include "engine/Portfolio.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace slp;
using namespace slp::engine;

namespace {

core::ProofTask task(const char *Text) { return {Text, "", 0}; }

core::BackendResult proveWith(core::EntailmentBackend &B, const char *Text,
                              uint64_t FuelSteps = 0) {
  Fuel F = FuelSteps ? Fuel(FuelSteps) : Fuel();
  return B.prove(task(Text), F);
}

// Valid, but out of the greedy unfolder's reach (the two lsegs rooted
// at a need a case split) and quick for both complete backends.
const char *NeedsSplit =
    "a != b & a != c & lseg(a, b) * lseg(a, c) |- false";

} // namespace

//===----------------------------------------------------------------------===//
// BackendKind parsing and the factory
//===----------------------------------------------------------------------===//

TEST(BackendKindTest, ParseAndName) {
  EXPECT_EQ(parseBackendKind("slp"), BackendKind::Slp);
  EXPECT_EQ(parseBackendKind("berdine"), BackendKind::Berdine);
  EXPECT_EQ(parseBackendKind("unfolding"), BackendKind::Unfolding);
  EXPECT_EQ(parseBackendKind("greedy"), BackendKind::Unfolding);
  EXPECT_EQ(parseBackendKind("portfolio"), BackendKind::Portfolio);
  EXPECT_FALSE(parseBackendKind("smallfoot").has_value());
  EXPECT_FALSE(parseBackendKind("").has_value());

  for (BackendKind K : {BackendKind::Slp, BackendKind::Berdine,
                        BackendKind::Unfolding, BackendKind::Portfolio})
    EXPECT_EQ(parseBackendKind(backendKindName(K)), K);
}

TEST(BackendKindTest, FactoryBuildsEveryKind) {
  for (BackendKind K : {BackendKind::Slp, BackendKind::Berdine,
                        BackendKind::Unfolding, BackendKind::Portfolio}) {
    std::unique_ptr<core::EntailmentBackend> B = makeBackend(K);
    ASSERT_TRUE(B);
    EXPECT_STREQ(B->name(), backendKindName(K));
  }
  EXPECT_TRUE(makeBackend(BackendKind::Slp)->complete());
  EXPECT_TRUE(makeBackend(BackendKind::Berdine)->complete());
  EXPECT_FALSE(makeBackend(BackendKind::Unfolding)->complete());
  EXPECT_TRUE(makeBackend(BackendKind::Portfolio)->complete());
}

//===----------------------------------------------------------------------===//
// Single backends through the uniform interface
//===----------------------------------------------------------------------===//

TEST(BackendTest, SlpBackendProvesAndRefutes) {
  core::SlpBackend B;
  core::BackendResult R =
      proveWith(B, "x != y & next(x, y) |- lseg(x, y)");
  EXPECT_TRUE(R.Parsed);
  EXPECT_EQ(R.V, core::Verdict::Valid);
  EXPECT_EQ(R.Backend, "slp");

  R = proveWith(B, "next(x, y) |- lseg(x, y)");
  EXPECT_EQ(R.V, core::Verdict::Invalid);
  EXPECT_FALSE(R.CexText.empty()) << "SLP materializes countermodels";

  // A query that needs real saturation work reports its fuel.
  R = proveWith(B, NeedsSplit);
  EXPECT_EQ(R.V, core::Verdict::Valid);
  EXPECT_GT(R.FuelUsed, 0u);
}

TEST(BackendTest, SlpBackendReportsParseErrors) {
  core::SlpBackend B;
  core::BackendResult R = proveWith(B, "lseg(x |- y");
  EXPECT_FALSE(R.Parsed);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_EQ(R.V, core::Verdict::Unknown);
  EXPECT_FALSE(R.definitive());
}

TEST(BackendTest, BerdineBackendMapsAllThreeVerdicts) {
  baselines::BerdineBackend B;
  EXPECT_EQ(proveWith(B, "next(x, y) |- next(x, y)").V,
            core::Verdict::Valid);
  EXPECT_EQ(proveWith(B, "lseg(x, y) |- next(x, y)").V,
            core::Verdict::Invalid);
  // A tiny budget exhausts mid-search: Unknown, not definitive.
  core::BackendResult R = proveWith(B, NeedsSplit, /*FuelSteps=*/2);
  EXPECT_EQ(R.V, core::Verdict::Unknown);
  EXPECT_FALSE(R.definitive());
}

TEST(BackendTest, UnfoldingBackendNeverClaimsInvalid) {
  baselines::UnfoldingBackend B;
  EXPECT_EQ(proveWith(B, "x != y & next(x, y) |- lseg(x, y)").V,
            core::Verdict::Valid);
  // Genuinely invalid: still only Unknown (NotProved).
  EXPECT_EQ(proveWith(B, "lseg(x, y) |- next(x, y)").V,
            core::Verdict::Unknown);
  // Valid but out of greedy reach: Unknown as well.
  EXPECT_EQ(proveWith(B, NeedsSplit).V, core::Verdict::Unknown);
}

//===----------------------------------------------------------------------===//
// The racing portfolio
//===----------------------------------------------------------------------===//

TEST(PortfolioTest, AgreesWithSlpOnMixedQueries) {
  const char *Queries[] = {
      "x != y & lseg(x, y) |- lseg(x, y)",
      "next(x, y) |- lseg(x, y)",
      "lseg(x, y) * lseg(y, z) |- lseg(x, z)",
      NeedsSplit,
      "x = y & next(x, z) |- next(y, z)",
      "emp |- false",
  };
  core::SlpBackend Slp;
  PortfolioProver Portfolio;
  for (const char *Q : Queries) {
    core::BackendResult Want = proveWith(Slp, Q);
    core::BackendResult Got = proveWith(Portfolio, Q);
    EXPECT_EQ(Got.V, Want.V) << Q;
    EXPECT_TRUE(Got.definitive()) << Q;
    EXPECT_FALSE(Got.Backend.empty()) << "definitive verdicts name a winner";
  }

  const std::vector<BackendTally> &Ts = Portfolio.tallies();
  ASSERT_EQ(Ts.size(), 3u);
  uint64_t Wins = 0, Races = 0;
  for (const BackendTally &T : Ts) {
    EXPECT_EQ(T.Races, std::size(Queries));
    EXPECT_LE(T.Wins, T.Definitive);
    Wins += T.Wins;
    Races += T.Races;
  }
  EXPECT_EQ(Wins, std::size(Queries)) << "exactly one winner per task";
  EXPECT_EQ(Races, 3 * std::size(Queries));
}

TEST(PortfolioTest, NotProvedNeverWins) {
  // An unfolding-only portfolio cannot decide NeedsSplit (valid, but
  // greedy provers cannot branch) — the failure must surface as
  // Unknown with no winner, never as a verdict.
  PortfolioOptions PO;
  PO.Backends = {BackendKind::Unfolding};
  PortfolioProver P(std::move(PO));
  EXPECT_FALSE(P.complete());
  core::BackendResult R = proveWith(P, NeedsSplit);
  EXPECT_EQ(R.V, core::Verdict::Unknown);
  EXPECT_TRUE(R.Backend.empty());
  EXPECT_EQ(P.tallies()[0].Wins, 0u);
}

TEST(PortfolioTest, ParseErrorsSurface) {
  PortfolioProver P;
  core::BackendResult R = proveWith(P, "next(x |- y)");
  EXPECT_FALSE(R.Parsed);
  EXPECT_FALSE(R.Error.empty());
}

TEST(PortfolioTest, CancellationStopsHopelessLoser) {
  // Eight disjoint lsegs force the Berdine splitter through an
  // astronomic partition enumeration (Bell-number many leaves over 16
  // constants) — unbounded, it would run for days. SLP decides the
  // sequent immediately; the race must cancel the splitter and
  // return. The member order puts Berdine on the calling thread, so
  // this test also exercises cancelling the caller's own member.
  PortfolioOptions PO;
  PO.Backends = {BackendKind::Berdine, BackendKind::Slp};
  PortfolioProver P(std::move(PO));
  std::string Q;
  for (char V = 'a'; V != 'i'; ++V) {
    if (!Q.empty())
      Q += " * ";
    Q += std::string("lseg(") + V + "1, " + V + "2)";
  }
  core::BackendResult R = proveWith(P, (Q + " |- " + Q).c_str());
  EXPECT_EQ(R.V, core::Verdict::Valid);
  EXPECT_EQ(R.Backend, "slp");
  const std::vector<BackendTally> &Ts = P.tallies();
  EXPECT_EQ(Ts[0].Name, "berdine");
  EXPECT_EQ(Ts[0].Wins, 0u);
  EXPECT_EQ(Ts[0].Cancelled, 1u);
  EXPECT_EQ(Ts[1].Wins, 1u);
}

TEST(PortfolioTest, OuterCancelTokenStopsTheRace) {
  // A Berdine-only portfolio on a partition-enumeration-hopeless
  // sequent would run for days; the caller's CancelToken is chained
  // into the race token, so firing it mid-race must stop the member.
  PortfolioOptions PO;
  PO.Backends = {BackendKind::Berdine};
  PortfolioProver P(std::move(PO));
  std::string Q;
  for (char V = 'a'; V != 'i'; ++V) {
    if (!Q.empty())
      Q += " * ";
    Q += std::string("lseg(") + V + "1, " + V + "2)";
  }
  std::string Query = Q + " |- " + Q;

  CancelToken Outer;
  std::thread Killer([&Outer] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Outer.cancel();
  });
  Fuel F(&Outer);
  core::BackendResult R = P.prove(task(Query.c_str()), F);
  Killer.join();
  EXPECT_EQ(R.V, core::Verdict::Unknown);
  EXPECT_TRUE(R.Backend.empty());
  EXPECT_EQ(P.tallies()[0].Cancelled, 1u);

  // An already-cancelled caller forfeits the race immediately.
  core::BackendResult R2 = P.prove(task(Query.c_str()), F);
  EXPECT_EQ(R2.V, core::Verdict::Unknown);
}

TEST(PortfolioTest, ExhaustedCallerBudgetForfeitsWithoutRacing) {
  // A limited caller Fuel with nothing left must not be inverted into
  // an unlimited race: the portfolio forfeits immediately.
  PortfolioOptions PO;
  PO.Backends = {BackendKind::Berdine}; // Would never return unbounded.
  PortfolioProver P(std::move(PO));
  std::string Q;
  for (char V = 'a'; V != 'i'; ++V) {
    if (!Q.empty())
      Q += " * ";
    Q += std::string("lseg(") + V + "1, " + V + "2)";
  }
  Fuel F(1);
  ASSERT_TRUE(F.consume()); // Drain the budget.
  core::BackendResult R = P.prove(task((Q + " |- " + Q).c_str()), F);
  EXPECT_EQ(R.V, core::Verdict::Unknown);
  EXPECT_EQ(P.tallies()[0].Races, 0u) << "nobody raced";
}

TEST(PortfolioTest, PerMemberFuelBudgetsApply) {
  // The caller's Fuel is each member's budget: with Fuel(1) nobody
  // decides even the easy NeedsSplit query.
  PortfolioProver P;
  core::BackendResult R = proveWith(P, NeedsSplit, /*FuelSteps=*/1);
  EXPECT_EQ(R.V, core::Verdict::Unknown);
  EXPECT_TRUE(R.Backend.empty());
}

//===----------------------------------------------------------------------===//
// Engine routing (--backend equivalents)
//===----------------------------------------------------------------------===//

TEST(EngineBackendTest, BatchProverRoutesEveryBackend) {
  std::vector<std::string> Queries = {
      "x != y & next(x, y) |- lseg(x, y)", // valid, greedy-provable
      "lseg(x, y) |- next(x, y)",          // invalid
      NeedsSplit,                          // valid, needs splitting
  };

  // Presolve off throughout: this test is about backend routing, and
  // the pre-solver would answer these queries before any backend runs.
  BatchOptions Slp;
  Slp.Presolve = false;
  std::vector<QueryResult> Want = BatchProver(Slp).run(Queries);
  ASSERT_EQ(Want.size(), Queries.size());

  for (BackendKind K : {BackendKind::Berdine, BackendKind::Portfolio}) {
    BatchOptions O;
    O.Backend = K;
    O.Presolve = false;
    std::vector<QueryResult> Got = BatchProver(O).run(Queries);
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I != Got.size(); ++I) {
      EXPECT_EQ(Got[I].Status, Want[I].Status) << I;
      EXPECT_EQ(Got[I].V, Want[I].V)
          << backendKindName(K) << " disagrees on query " << I;
    }
  }

  // The incomplete unfolder: its Valid verdicts agree, everything else
  // degrades to Unknown.
  BatchOptions O;
  O.Backend = BackendKind::Unfolding;
  O.Presolve = false;
  std::vector<QueryResult> Got = BatchProver(O).run(Queries);
  for (size_t I = 0; I != Got.size(); ++I) {
    if (Got[I].V == core::Verdict::Valid) {
      EXPECT_EQ(Want[I].V, core::Verdict::Valid) << I;
    } else {
      EXPECT_EQ(Got[I].V, core::Verdict::Unknown) << I;
    }
  }
}

TEST(EngineBackendTest, BatchStatsCarryBackendTallies) {
  std::vector<std::string> Queries = {
      "x != y & next(x, y) |- lseg(x, y)",
      "next(x, y) |- next(x, y)",
      "lseg(x, y) |- next(x, y)",
  };
  // Presolve off: the tally accounting below assumes every query
  // races the portfolio members.
  BatchOptions O;
  O.Backend = BackendKind::Portfolio;
  O.Jobs = 2;
  O.Presolve = false;
  BatchProver Engine(O);
  std::vector<QueryResult> Results = Engine.run(Queries);

  const BatchStats &S = Engine.stats();
  ASSERT_EQ(S.Backends.size(), 3u) << "one tally per portfolio member";
  uint64_t Races = 0, Wins = 0;
  for (const BackendTally &T : S.Backends) {
    Races += T.Races;
    Wins += T.Wins;
  }
  // Every non-cached query raced all three members; each race has
  // exactly one winner (all three queries are decidable).
  EXPECT_EQ(Races % 3, 0u);
  EXPECT_EQ(Wins, S.CacheMisses);
  for (const QueryResult &R : Results)
    if (!R.FromCache) {
      EXPECT_FALSE(R.Backend.empty());
    }

  // Single-backend runs synthesize a one-entry tally.
  BatchOptions Single;
  Single.Presolve = false;
  BatchProver SingleEngine(Single);
  SingleEngine.run(Queries);
  ASSERT_EQ(SingleEngine.stats().Backends.size(), 1u);
  EXPECT_EQ(SingleEngine.stats().Backends[0].Name, "slp");
  EXPECT_EQ(SingleEngine.stats().Backends[0].Wins, 3u);
}
