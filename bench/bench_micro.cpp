//===- bench/bench_micro.cpp - Substrate microbenchmarks -----------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// google-benchmark microbenchmarks for the substrates: term
/// interning, superposition saturation, model generation, the static
/// pre-solver, single end-to-end prover queries, and one refute-d1 row.
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalyzer.h"
#include "core/Prover.h"
#include "core/ProverSession.h"
#include "engine/BatchProver.h"
#include "engine/CanonicalKey.h"
#include "gen/RandomEntailments.h"
#include "sl/Parser.h"
#include "superposition/Saturation.h"

#include <benchmark/benchmark.h>

using namespace slp;

static void BM_TermInterning(benchmark::State &State) {
  for (auto _ : State) {
    SymbolTable Symbols;
    TermTable Terms(Symbols);
    for (int I = 0; I != 100; ++I)
      benchmark::DoNotOptimize(Terms.constant("v" + std::to_string(I)));
  }
}
BENCHMARK(BM_TermInterning);

static void BM_TermLookupHit(benchmark::State &State) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  for (int I = 0; I != 100; ++I)
    (void)Terms.constant("v" + std::to_string(I));
  for (auto _ : State)
    benchmark::DoNotOptimize(Terms.constant("v57"));
}
BENCHMARK(BM_TermLookupHit);

static void BM_SaturationChain(benchmark::State &State) {
  // Equality chain refutation x1=..=xN, x1 != xN.
  const int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    SymbolTable Symbols;
    TermTable Terms(Symbols);
    sup::Saturation Sat(Terms);
    for (int I = 1; I != N; ++I)
      Sat.addInput({}, {sup::Equation(
                           Terms.constant("x" + std::to_string(I)),
                           Terms.constant("x" + std::to_string(I + 1)))});
    Sat.addInput({sup::Equation(Terms.constant("x1"),
                                Terms.constant("x" + std::to_string(N)))},
                 {});
    Fuel F;
    benchmark::DoNotOptimize(Sat.saturate(F));
  }
}
BENCHMARK(BM_SaturationChain)->Arg(8)->Arg(16)->Arg(32);

static void BM_ModelGeneration(benchmark::State &State) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  sup::Saturation Sat(Terms);
  SplitMix64 Rng(7);
  for (int I = 0; I != 30; ++I) {
    Symbol A = Terms.constant("v" + std::to_string(Rng.below(20)));
    Symbol B = Terms.constant("v" + std::to_string(Rng.below(20)));
    if (A != B)
      Sat.addInput({}, {sup::Equation(A, B)});
  }
  Fuel F;
  if (Sat.saturate(F) != sup::SatResult::Saturated)
    State.SkipWithError("unexpectedly unsatisfiable");
  for (auto _ : State)
    benchmark::DoNotOptimize(Sat.genModel());
}
BENCHMARK(BM_ModelGeneration);

namespace {

/// The prover's inner-loop shape on a Table-1 heavy row: a clause
/// database of a few hundred stored clauses that grows by one clause
/// between candidate-model attempts. Each benchmark iteration seeds
/// the engine with a satisfiable base soup of unit equations (always
/// consistent, so every attempt certifies; activations churn the
/// database through demodulation, exercising the deletion watermark),
/// then runs 64 add-one-clause/attempt rounds — the part of the query
/// the incremental machinery amortizes.
void modelGuidedAttemptCycle(benchmark::State &State, bool Incremental) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  SplitMix64 Rng(11);
  const unsigned NumConsts = 400, BaseClauses = 300, Rounds = 64;
  std::vector<Symbol> Consts;
  for (unsigned I = 0; I != NumConsts; ++I)
    Consts.push_back(Terms.constant("v" + std::to_string(I)));
  auto Pick = [&]() { return Consts[Rng.below(NumConsts)]; };
  std::vector<std::pair<Symbol, Symbol>> Base, Extra;
  for (unsigned I = 0; I != BaseClauses; ++I)
    Base.emplace_back(Pick(), Pick());
  for (unsigned I = 0; I != Rounds; ++I)
    Extra.emplace_back(Pick(), Pick());

  sup::SaturationOptions Opts;
  Opts.IncrementalModel = Incremental;
  sup::Saturation Sat(Terms, Opts);
  for (auto _ : State) {
    Sat.clear();
    for (const auto &B : Base)
      if (B.first != B.second)
        Sat.addInput({}, {sup::Equation(B.first, B.second)});
    Fuel F;
    std::optional<GroundRewriteSystem> M;
    if (Sat.saturateModelGuided(F, M) != sup::SatResult::Saturated) {
      State.SkipWithError("base soup unexpectedly unsatisfiable");
      return;
    }
    for (const auto &E : Extra) {
      if (E.first != E.second)
        Sat.addInput({}, {sup::Equation(E.first, E.second)});
      Sat.saturateModelGuided(F, M);
      benchmark::DoNotOptimize(M);
    }
  }
  State.SetItemsProcessed(State.iterations() * Rounds);
}

} // namespace

// Model attempts re-sort the whole database, replay Gen from an empty
// system, and re-certify every stored clause every time...
static void BM_ModelGuidedFromScratch(benchmark::State &State) {
  modelGuidedAttemptCycle(State, /*Incremental=*/false);
}
BENCHMARK(BM_ModelGuidedFromScratch);

// ...versus paying only for what changed since the previous attempt
// (persistently ordered live set, Gen replay from the watermark,
// incremental certification). Same verdicts, same models.
static void BM_ModelGuidedIncremental(benchmark::State &State) {
  modelGuidedAttemptCycle(State, /*Incremental=*/true);
}
BENCHMARK(BM_ModelGuidedIncremental);

static void BM_ProverPaperExample(benchmark::State &State) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  sl::ParseResult P = sl::parseEntailment(
      Terms, "c != e & lseg(a, b) * lseg(a, c) * next(c, d) * lseg(d, e) "
             "|- lseg(b, c) * lseg(c, e)");
  core::SlpProver Prover(Terms);
  for (auto _ : State)
    benchmark::DoNotOptimize(Prover.prove(*P.Value));
}
BENCHMARK(BM_ProverPaperExample);

static void BM_ProverRandomDist2(benchmark::State &State) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  SplitMix64 Rng(1);
  std::vector<sl::Entailment> Es;
  for (int I = 0; I != 50; ++I)
    Es.push_back(gen::distribution2(Terms, Rng, 12, 0.7));
  core::SlpProver Prover(Terms);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Prover.prove(Es[I % Es.size()]));
    ++I;
  }
}
BENCHMARK(BM_ProverRandomDist2);

// The static pre-solver alone (closure, W1-W5 fixpoint, matcher) on
// the entail-d2 corpus shape: the 400 queries of
// `slpgen --dist=2 --vars=16 --count=400 --seed=1 --pnext=0.7`,
// parsed once into one table; each iteration analyzes one query.
static void BM_AnalyzeDist2(benchmark::State &State) {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  std::vector<sl::Entailment> Es;
  {
    SymbolTable GenSyms;
    TermTable GenTerms(GenSyms);
    SplitMix64 Rng(1);
    for (int I = 0; I != 400; ++I) {
      std::string Text =
          sl::str(GenTerms, gen::distribution2(GenTerms, Rng, 16, 0.7));
      Es.push_back(*sl::parseEntailment(Terms, Text).Value);
    }
  }
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(analysis::analyze(Terms, Es[I % Es.size()]));
    ++I;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AnalyzeDist2);

namespace {

/// A corpus of small entailments, rendered to text: the workload where
/// per-query table construction dominates the non-inference cost.
std::vector<std::string> smallEntailmentCorpus() {
  SymbolTable Symbols;
  TermTable Terms(Symbols);
  SplitMix64 Rng(5);
  std::vector<std::string> Corpus;
  for (int I = 0; I != 64; ++I)
    Corpus.push_back(sl::str(
        Terms, gen::distribution1(Terms, Rng, 4, /*PLseg=*/0.2, /*PNe=*/0.3)));
  return Corpus;
}

} // namespace

// The engine's per-query path before ProverSession: parse into a
// throwaway table, canonicalize, rebuild the canonical form in a
// second fresh table, prove with a fresh prover.
static void BM_BatchRebuildPerQuery(benchmark::State &State) {
  std::vector<std::string> Corpus = smallEntailmentCorpus();
  for (auto _ : State) {
    for (const std::string &Q : Corpus) {
      SymbolTable ParseSyms;
      TermTable ParseTerms(ParseSyms);
      sl::ParseResult P = sl::parseEntailment(ParseTerms, Q);
      engine::CanonicalQuery K = engine::CanonicalQuery::of(*P.Value);
      SymbolTable Syms;
      TermTable Terms(Syms);
      sl::Entailment E = K.rebuild(Terms);
      core::SlpProver Prover(Terms);
      benchmark::DoNotOptimize(Prover.prove(E));
    }
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_BatchRebuildPerQuery);

// The same work through one reused ProverSession (the engine's current
// per-worker path): parse at the checkpoint, rewind, rebuild, prove.
static void BM_BatchSessionReuse(benchmark::State &State) {
  std::vector<std::string> Corpus = smallEntailmentCorpus();
  core::ProverSession Session;
  for (auto _ : State) {
    for (const std::string &Q : Corpus) {
      Session.reset();
      sl::ParseResult P = sl::parseEntailment(Session.terms(), Q);
      engine::CanonicalQuery K = engine::CanonicalQuery::of(*P.Value);
      Session.reset();
      sl::Entailment E = K.rebuild(Session.terms());
      benchmark::DoNotOptimize(Session.prove(E));
    }
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_BatchSessionReuse);

// One-task run()s on a long-lived engine, the way perfbench's latency
// sweep issues its queries: the engine's fixed cost per run around one
// query, with the workers' sessions kept warm across runs. prove:0 is
// a query the pre-solver decides, prove:1 one the prover saturates
// with the pre-solver off. The cache is off, so every run proves.
static void BM_EngineOneTaskRun(benchmark::State &State) {
  const bool Prove = State.range(0);
  engine::BatchOptions Opts;
  Opts.CacheEnabled = false;
  Opts.Presolve = !Prove;
  engine::BatchProver Engine(Opts);
  const std::vector<std::string> Task = {
      Prove ? "x != y & next(x, y) |- lseg(x, y)" : "emp |- emp"};
  for (auto _ : State)
    benchmark::DoNotOptimize(Engine.run(Task));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_EngineOneTaskRun)->ArgName("prove")->Arg(0)->Arg(1);

// The subsumption-heavy Table 1 query, checked in as data/query69.slp:
// the 69th draw of
// `slpgen --dist=1 --vars=20 --seed=1 --plseg=0.04 --pne=0.11`, proved
// the way `slp --no-presolve --fuel=2000 data/query69.slp` proves it
// (canonical form rebuilt in a reset session). Nearly all of its time
// goes to forward subsumption, which fuel does not charge; the counters
// show the pair checks against the clauses the scans visited.
// `slp --no-presolve --fuel=2000 --query-stats data/query69.slp` prints
// its verdict, fuel and fwd/bwd deletions, which CTest pins
// (cli_slp_query69_counts).
static void BM_SubsumptionHeavyQuery69(benchmark::State &State) {
  std::string Query;
  {
    SymbolTable Symbols;
    TermTable Terms(Symbols);
    SplitMix64 Rng(1);
    for (int I = 0; I != 69; ++I)
      Query = sl::str(Terms, gen::distribution1(Terms, Rng, 20, 0.04, 0.11));
  }
  core::ProverSession Session;
  sup::SaturationStats Sat;
  for (auto _ : State) {
    Session.reset();
    sl::ParseResult P = sl::parseEntailment(Session.terms(), Query);
    engine::CanonicalQuery K = engine::CanonicalQuery::of(*P.Value);
    Session.reset();
    sl::Entailment E = K.rebuild(Session.terms());
    Fuel F(2000);
    core::ProveResult R = Session.prove(E, F);
    Sat = R.Stats.Sat;
    benchmark::DoNotOptimize(R);
  }
  State.counters["SubChecks"] = static_cast<double>(Sat.SubChecks);
  State.counters["SubScanBaseline"] = static_cast<double>(Sat.SubScanBaseline);
}
BENCHMARK(BM_SubsumptionHeavyQuery69)->Unit(benchmark::kMillisecond);

// One refute-d1 row shape (vars 20, P_lseg 0.04, P_!= 0.11): the 400
// queries of `slpgen --dist=1 --vars=20 --count=400 --seed=1
// --plseg=0.04 --pne=0.11`, rendered once, then each proved through
// one reused ProverSession at fuel 300 without the pre-solver, the way
// `slp --no-presolve --cache=off --fuel=300` proves them. Most of the
// time is the given-clause loop, and most conclusions it derives are
// dropped at intake; Derived and Kept are the counts of one pass.
static void BM_ProveRefuteRow(benchmark::State &State) {
  std::vector<std::string> Corpus;
  {
    SymbolTable Symbols;
    TermTable Terms(Symbols);
    SplitMix64 Rng(1);
    for (int I = 0; I != 400; ++I)
      Corpus.push_back(
          sl::str(Terms, gen::distribution1(Terms, Rng, 20, 0.04, 0.11)));
  }
  core::ProverSession Session;
  sup::SaturationStats Pass;
  for (auto _ : State) {
    Pass = {};
    for (const std::string &Q : Corpus) {
      Session.reset();
      sl::ParseResult P = sl::parseEntailment(Session.terms(), Q);
      engine::CanonicalQuery K = engine::CanonicalQuery::of(*P.Value);
      Session.reset();
      sl::Entailment E = K.rebuild(Session.terms());
      Fuel F(300);
      core::ProveResult R = Session.prove(E, F);
      Pass += R.Stats.Sat;
      benchmark::DoNotOptimize(R);
    }
  }
  State.SetItemsProcessed(State.iterations() * Corpus.size());
  State.counters["Derived"] = static_cast<double>(Pass.Derived);
  State.counters["Kept"] = static_cast<double>(Pass.Kept);
}
BENCHMARK(BM_ProveRefuteRow)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
