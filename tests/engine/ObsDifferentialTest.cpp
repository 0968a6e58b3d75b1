//===- tests/engine/ObsDifferentialTest.cpp ------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// Telemetry must be observation-only: a batch run with tracing and
/// metrics enabled produces verdict-for-verdict identical results to a
/// run with everything off, and the run populates the metric names the
/// dashboards and `--metrics-json` consumers rely on.
///
//===----------------------------------------------------------------------===//

#include "engine/BatchProver.h"
#include "gen/RandomEntailments.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sl/Parser.h"

#include "../TestUtil.h"
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

using namespace slp;
using namespace slp::engine;

namespace {

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

std::vector<core::Verdict> runBatch(const std::vector<std::string> &Corpus,
                                    unsigned Jobs, bool Presolve = true) {
  BatchOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Presolve = Presolve;
  BatchProver Engine(Opts);
  std::vector<QueryResult> Results = Engine.run(Corpus);
  std::vector<core::Verdict> Verdicts;
  for (const QueryResult &R : Results) {
    EXPECT_EQ(R.Status, QueryStatus::Ok);
    Verdicts.push_back(R.V);
  }
  return Verdicts;
}

} // namespace

TEST(ObsDifferential, VerdictsIdenticalWithTelemetryOnAndOff) {
  std::vector<std::string> Corpus = makeCorpus(15, /*Seed=*/123);

  obs::TraceRecorder &Recorder = obs::TraceRecorder::global();
  Recorder.discard();
  std::vector<core::Verdict> Plain = runBatch(Corpus, /*Jobs=*/3);

  const std::string TracePath = "obs_differential_trace.json";
  Recorder.start(TracePath);
  std::vector<core::Verdict> Traced = runBatch(Corpus, /*Jobs=*/3);
  ASSERT_TRUE(Recorder.finish());

  ASSERT_EQ(Plain.size(), Traced.size());
  for (size_t I = 0; I != Plain.size(); ++I)
    EXPECT_EQ(Plain[I], Traced[I]) << "query " << I << ": " << Corpus[I];

  // The traced run must have produced a loadable trace that covers the
  // per-query phases.
  std::string Text = test::readFile(TracePath);
  std::remove(TracePath.c_str());
  std::unique_ptr<test::Json> Doc = test::parseJson(Text);
  ASSERT_TRUE(Doc);
  const test::Json *Events = Doc->get("traceEvents");
  ASSERT_TRUE(Events);
  unsigned Queries = 0, Parses = 0, Proves = 0;
  for (const test::Json &E : Events->Arr) {
    const std::string &Name = E.get("name")->Str;
    Queries += Name == "query";
    Parses += Name == "parse";
    Proves += Name == "prove";
  }
  EXPECT_EQ(Queries, Corpus.size());
  EXPECT_EQ(Parses, Corpus.size());
  EXPECT_GT(Proves, 0u);
}

TEST(ObsDifferential, BatchRunPopulatesRegistryMetrics) {
  obs::TraceRecorder::global().discard();
  std::vector<std::string> Corpus = makeCorpus(10, /*Seed=*/77);
  // Duplicate the corpus so the second half hits the result cache.
  std::vector<std::string> Doubled = Corpus;
  Doubled.insert(Doubled.end(), Corpus.begin(), Corpus.end());

  // Presolve off: the assertions below account for every query
  // reaching the cache and the prover.
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  runBatch(Doubled, /*Jobs=*/2, /*Presolve=*/false);
  obs::MetricsSnapshot After = obs::metrics().snapshot();

  EXPECT_EQ(After.counterOr0("engine.queries") -
                Before.counterOr0("engine.queries"),
            Doubled.size());
  // The single-flight cache proves each distinct key once, whichever
  // worker meets it first: every other occurrence is a hit.
  std::set<std::string> Keys;
  {
    SymbolTable Symbols;
    TermTable Terms(Symbols);
    for (const std::string &Q : Doubled) {
      sl::ParseResult P = sl::parseEntailment(Terms, Q);
      ASSERT_TRUE(P.ok()) << Q;
      Keys.insert(CanonicalQuery::of(*P.Value).key());
    }
  }
  EXPECT_EQ(After.counterOr0("cache.hits") - Before.counterOr0("cache.hits"),
            Doubled.size() - Keys.size())
      << "the duplicated half must be answered from the cache";
  EXPECT_EQ(After.counterOr0("cache.misses") -
                Before.counterOr0("cache.misses"),
            Keys.size());

  const obs::HistogramSnapshot *Prove = After.histogram("engine.phase.prove_ns");
  ASSERT_TRUE(Prove);
  EXPECT_GT(Prove->Count, 0u);
  EXPECT_GT(Prove->quantile(0.99), 0.0);
  const obs::HistogramSnapshot *Parse = After.histogram("engine.phase.parse_ns");
  ASSERT_TRUE(Parse);
  EXPECT_GE(Parse->Count, Doubled.size());
}
