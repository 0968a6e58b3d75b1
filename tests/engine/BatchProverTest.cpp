//===- tests/engine/BatchProverTest.cpp -----------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// The concurrent batch engine: a multi-threaded run over generated
/// corpora must agree verdict-for-verdict with the sequential
/// core::SlpProver, be deterministic across job counts and cache
/// settings, keep results in input order, and answer duplicated
/// corpora from the cache. Its counters must add up: the saturation
/// counters of a run are the sum of its queries' counters for any job
/// count, and the registry mirrors every count of the run.
///
//===----------------------------------------------------------------------===//

#include "engine/BatchProver.h"
#include "gen/RandomEntailments.h"
#include "obs/Metrics.h"
#include "sl/Parser.h"

#include <gtest/gtest.h>

#include <set>

using namespace slp;
using namespace slp::engine;

namespace {

/// Renders a mixed corpus from both paper distributions.
std::vector<std::string> makeCorpus(unsigned PerDist, uint64_t Seed) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  SplitMix64 Rng(Seed);
  std::vector<std::string> Corpus;
  for (unsigned I = 0; I != PerDist; ++I)
    Corpus.push_back(sl::str(
        Terms, gen::distribution1(Terms, Rng, 6, /*PLseg=*/0.2, /*PNe=*/0.3)));
  for (unsigned I = 0; I != PerDist; ++I)
    Corpus.push_back(
        sl::str(Terms, gen::distribution2(Terms, Rng, 6, /*PNext=*/0.6)));
  return Corpus;
}

/// Number of distinct canonical keys among \p Corpus.
size_t distinctKeys(const std::vector<std::string> &Corpus) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  std::set<std::string> Keys;
  for (const std::string &Q : Corpus) {
    sl::ParseResult P = sl::parseEntailment(Terms, Q);
    EXPECT_TRUE(P.ok()) << Q;
    Keys.insert(CanonicalQuery::of(*P.Value).key());
  }
  return Keys.size();
}

std::vector<core::Verdict>
sequentialVerdicts(const std::vector<std::string> &Corpus) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  core::SlpProver Prover(Terms);
  std::vector<core::Verdict> Verdicts;
  for (const std::string &Q : Corpus) {
    sl::ParseResult P = sl::parseEntailment(Terms, Q);
    EXPECT_TRUE(P.ok()) << Q;
    Verdicts.push_back(Prover.prove(*P.Value).V);
  }
  return Verdicts;
}

} // namespace

TEST(BatchProver, AgreesWithSequentialProver) {
  std::vector<std::string> Corpus = makeCorpus(20, /*Seed=*/42);
  std::vector<core::Verdict> Expected = sequentialVerdicts(Corpus);

  BatchOptions Opts;
  Opts.Jobs = 4;
  BatchProver Engine(Opts);
  std::vector<QueryResult> Results = Engine.run(Corpus);

  ASSERT_EQ(Results.size(), Corpus.size());
  for (size_t I = 0; I != Results.size(); ++I) {
    EXPECT_EQ(Results[I].Status, QueryStatus::Ok) << Corpus[I];
    EXPECT_EQ(Results[I].V, Expected[I]) << Corpus[I];
  }
}

TEST(BatchProver, DeterministicAcrossJobsAndCache) {
  std::vector<std::string> Corpus = makeCorpus(12, /*Seed=*/7);
  std::vector<std::string> Runs[3];
  unsigned JobCounts[] = {1, 3, 8};
  bool CacheOn[] = {true, false, true};
  for (int R = 0; R != 3; ++R) {
    BatchOptions Opts;
    Opts.Jobs = JobCounts[R];
    Opts.CacheEnabled = CacheOn[R];
    BatchProver Engine(Opts);
    for (const QueryResult &Res : Engine.run(Corpus))
      Runs[R].push_back(Res.verdictText());
  }
  EXPECT_EQ(Runs[0], Runs[1]);
  EXPECT_EQ(Runs[0], Runs[2]);
}

TEST(BatchProver, DuplicatedCorpusHitsCache) {
  std::vector<std::string> Base = makeCorpus(10, /*Seed=*/3);
  std::vector<std::string> Corpus;
  for (int Rep = 0; Rep != 4; ++Rep)
    Corpus.insert(Corpus.end(), Base.begin(), Base.end());
  const size_t Distinct = distinctKeys(Corpus);
  ASSERT_LE(Distinct, Base.size());

  // The single-flight cache proves each key once at any job count:
  // racing first occurrences wait for the owner and count as hits.
  // Presolve off: statically decided queries never reach the cache.
  for (unsigned Jobs : {1u, 2u, 4u, 8u}) {
    BatchOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Presolve = false;
    BatchProver Engine(Opts);
    std::vector<QueryResult> Results = Engine.run(Corpus);

    const BatchStats &S = Engine.stats();
    EXPECT_EQ(S.Queries, Corpus.size()) << Jobs << " jobs";
    EXPECT_EQ(S.CacheMisses, Distinct) << Jobs << " jobs";
    EXPECT_EQ(S.CacheHits, Corpus.size() - Distinct) << Jobs << " jobs";
    size_t Proved = 0;
    for (const QueryResult &R : Results)
      Proved += !R.FromCache;
    EXPECT_EQ(Proved, Distinct) << Jobs << " jobs";
    // Repeats agree with the first occurrence.
    for (size_t I = Base.size(); I != Corpus.size(); ++I)
      EXPECT_EQ(Results[I].V, Results[I % Base.size()].V);
  }
}

TEST(BatchProver, CacheOffNeverHits) {
  std::vector<std::string> Corpus = makeCorpus(5, /*Seed=*/3);
  Corpus.insert(Corpus.end(), Corpus.begin(), Corpus.begin() + 5);
  BatchOptions Opts;
  Opts.CacheEnabled = false;
  BatchProver Engine(Opts);
  for (const QueryResult &R : Engine.run(Corpus))
    EXPECT_FALSE(R.FromCache);
  EXPECT_EQ(Engine.stats().CacheHits, 0u);
  EXPECT_EQ(Engine.cache().size(), 0u);
}

TEST(BatchProver, ParseErrorsReportedInPlace) {
  std::vector<std::string> Corpus = {
      "x != y & next(x, y) |- lseg(x, y)",
      "this is not an entailment",
      "lseg(x, y) |- next(x, y)",
  };
  BatchProver Engine;
  std::vector<QueryResult> Results = Engine.run(Corpus);
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_EQ(Results[0].Status, QueryStatus::Ok);
  EXPECT_EQ(Results[0].V, core::Verdict::Valid);
  EXPECT_EQ(Results[1].Status, QueryStatus::ParseError);
  EXPECT_FALSE(Results[1].Error.empty());
  EXPECT_STREQ(Results[1].verdictText(), "parse-error");
  EXPECT_EQ(Results[2].Status, QueryStatus::Ok);
  EXPECT_EQ(Results[2].V, core::Verdict::Invalid);
  EXPECT_EQ(Engine.stats().ParseErrors, 1u);
}

TEST(BatchProver, FuelBudgetYieldsUnknownNotHang) {
  std::vector<std::string> Corpus = makeCorpus(4, /*Seed=*/11);
  // A chain entailment that needs several metered inferences, so at
  // least one query is guaranteed to starve.
  Corpus.push_back(
      "x != y & y != z & x != z & next(x, y) * next(y, z) |- lseg(x, z)");
  std::vector<core::Verdict> Unlimited = sequentialVerdicts(Corpus);
  BatchOptions Opts;
  Opts.FuelPerQuery = 1; // Starvation budget.
  BatchProver Engine(Opts);
  std::vector<QueryResult> Results = Engine.run(Corpus);
  ASSERT_EQ(Results.size(), Corpus.size());
  size_t Starved = 0;
  for (size_t I = 0; I != Results.size(); ++I) {
    // A query either runs out of fuel or (if trivially decidable
    // before the first metered inference) matches the real verdict.
    if (Results[I].V == core::Verdict::Unknown)
      ++Starved;
    else
      EXPECT_EQ(Results[I].V, Unlimited[I]) << Corpus[I];
  }
  EXPECT_GT(Starved, 0u) << "fuel budget had no effect";
}

TEST(BatchProver, SplitCorpusSkipsBlanksAndComments) {
  std::vector<std::string> Lines = BatchProver::splitCorpus(
      "# comment\n\nnext(x, y) |- lseg(x, y)\n   \t\n// also comment\n"
      "lseg(a, b) |- lseg(a, b)");
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_EQ(Lines[0], "next(x, y) |- lseg(x, y)");
  EXPECT_EQ(Lines[1], "lseg(a, b) |- lseg(a, b)");
}

// perfbench's latency sweep times one-task runs: such a run proves on
// the calling thread as the pool's only worker, whatever Jobs says.
TEST(BatchProver, OneTaskRunUsesOneWorkerAndNeverSteals) {
  BatchOptions Opts;
  Opts.Jobs = 4;
  BatchProver Engine(Opts);
  std::vector<QueryResult> Results =
      Engine.run(std::vector<std::string>{"lseg(x, y) |- next(x, y)"});
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results[0].V, core::Verdict::Invalid);
  const BatchStats &S = Engine.stats();
  EXPECT_EQ(S.WorkersUsed, 1u);
  EXPECT_EQ(S.Sessions, 1u);
  EXPECT_EQ(S.Steals, 0u);
  EXPECT_EQ(S.StealAttempts, 0u);

  // A larger batch at the same setting uses all four.
  Engine.run(makeCorpus(5, /*Seed=*/11));
  EXPECT_EQ(Engine.stats().WorkersUsed, 4u);
  EXPECT_EQ(Engine.stats().Sessions, 4u);
}

// The run's saturation counters are one struct: with the cache off
// every query is proved exactly once, so the per-run sum is
// independent of the worker count, equals the per-query sum, and is
// what the sat.* registry counters receive.
TEST(BatchProver, SaturationCountersSumOverQueriesForAnyJobs) {
  std::vector<std::string> Corpus = makeCorpus(15, /*Seed=*/19);
  sup::SaturationStats ByJobs[2];
  unsigned JobCounts[] = {1, 4};
  for (int I = 0; I != 2; ++I) {
    BatchOptions Opts;
    Opts.Jobs = JobCounts[I];
    Opts.CacheEnabled = false;
    Opts.Presolve = false;
    BatchProver Engine(Opts);
    obs::MetricsSnapshot Before = obs::metrics().snapshot();
    std::vector<QueryResult> Results = Engine.run(Corpus);
    obs::MetricsSnapshot After = obs::metrics().snapshot();

    sup::SaturationStats Sum;
    for (const QueryResult &R : Results)
      Sum += R.Sat;
    const sup::SaturationStats &Run = Engine.stats().Sat;
    EXPECT_EQ(Run, Sum) << "jobs=" << JobCounts[I];
    EXPECT_GT(Run.Derived, 0u);
    Run.forEach([&](const char *Name, uint64_t V) {
      EXPECT_EQ(After.counterOr0(Name) - Before.counterOr0(Name), V)
          << Name << " jobs=" << JobCounts[I];
    });
    ByJobs[I] = Run;
  }
  EXPECT_EQ(ByJobs[0], ByJobs[1]);
}

// The registry mirror walks the BatchStats tables: after each run,
// every mirrored count equals the registry delta of its counter or the
// value of its gauge. A one-entry cache makes the runs evict, so the
// cache.evictions row is exercised too, and the second run of each
// engine checks that the cache rows are per run.
TEST(BatchProver, RegistryMirrorsEveryBatchStatsCount) {
  std::vector<std::string> Corpus = makeCorpus(10, /*Seed=*/23);
  Corpus.insert(Corpus.end(), Corpus.begin(), Corpus.begin() + 6);
  Corpus.push_back("this is not an entailment");
  for (BackendKind Backend : {BackendKind::Slp, BackendKind::Portfolio})
    for (size_t Capacity : {size_t(1) << 20, size_t(1)}) {
      BatchOptions Opts;
      Opts.Jobs = 3;
      Opts.Backend = Backend;
      Opts.Cache.NumShards = 1;
      Opts.Cache.MaxEntries = Capacity;
      BatchProver Engine(Opts);
      uint64_t FirstRunEntries = 0;
      for (int Run = 0; Run != 2; ++Run) {
        obs::MetricsSnapshot Before = obs::metrics().snapshot();
        Engine.run(Corpus);
        obs::MetricsSnapshot After = obs::metrics().snapshot();

        const BatchStats &S = Engine.stats();
        EXPECT_EQ(S.Queries, Corpus.size());
        EXPECT_EQ(S.ParseErrors, 1u);
        EXPECT_GT(S.PresolvedValid, 0u);
        EXPECT_GT(S.PresolveMisses, 0u);
        EXPECT_EQ(S.CacheInsertions, S.CacheMisses);
        if (Capacity == 1) {
          EXPECT_GT(S.CacheEvictions, 0u);
          EXPECT_EQ(S.CacheEntries, 1u);
        } else if (Run == 0) {
          EXPECT_GT(S.CacheHits, 0u);
          EXPECT_EQ(S.CacheEvictions, 0u);
          EXPECT_EQ(S.CacheEntries, S.CacheMisses);
          FirstRunEntries = S.CacheEntries;
        } else {
          // Warm: every lookup hits, and the cache keeps its size.
          EXPECT_EQ(S.CacheMisses, 0u);
          EXPECT_EQ(S.CacheEvictions, 0u);
          EXPECT_EQ(S.CacheEntries, FirstRunEntries);
        }
        size_t Mirrored = 0;
        S.forEachMirrored([&](std::string_view Name, uint64_t V, Mirror How) {
          ++Mirrored;
          if (How == Mirror::Gauge) {
            const int64_t *G = After.gauge(Name);
            ASSERT_NE(G, nullptr) << Name;
            EXPECT_EQ(static_cast<uint64_t>(*G), V) << Name;
            return;
          }
          EXPECT_EQ(After.counterOr0(Name) - Before.counterOr0(Name), V)
              << Name << " (" << backendKindName(Backend) << ", capacity "
              << Capacity << ", run " << Run << ")";
        });
        EXPECT_EQ(Mirrored, std::size(BatchCounters) +
                                std::size(sup::SaturationCounters) +
                                6 * S.Backends.size());
      }
    }
}
