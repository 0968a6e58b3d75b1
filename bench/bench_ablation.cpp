//===- bench/bench_ablation.cpp - Design-choice ablations ----------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablations for two design choices of the prover:
///
///   1. redundancy elimination in the superposition engine
///      (subsumption and demodulation on/off),
///   2. model-guided spatial reasoning vs. case-split search — SLP
///      against the Berdine-style baseline on the same batch, which
///      quantifies the paper's core claim that the equality model
///      removes the aliasing non-determinism.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gen/RandomEntailments.h"

#include <cstdio>

using namespace slp;
using namespace slp::bench;

namespace {

BatchResult runSlpWith(TermTable &Terms,
                       const std::vector<sl::Entailment> &Batch,
                       sup::SaturationOptions Sat, uint64_t FuelBudget) {
  core::ProverOptions Opts;
  Opts.Sat = Sat;
  core::SlpProver Prover(Terms, Opts);
  BatchResult R;
  R.Total = static_cast<unsigned>(Batch.size());
  // Per-instance latencies go through the registry's prove histogram
  // (same metric the engine feeds); the before/after delta yields this
  // config's p50/p99.
  obs::Histogram &ProveHist =
      obs::metrics().histogram("engine.phase.prove_ns");
  const obs::HistogramSnapshot Before = ProveHist.snapshot();
  Timer T;
  for (const sl::Entailment &E : Batch) {
    Fuel F(FuelBudget);
    ScopedTimer ST(ProveHist);
    core::ProveResult PR = Prover.prove(E, F);
    if (PR.V != core::Verdict::Unknown)
      ++R.Solved;
    if (PR.V == core::Verdict::Valid)
      ++R.Valid;
    R.Sat += PR.Stats.Sat;
  }
  R.Seconds = T.seconds();
  obs::HistogramSnapshot Delta = ProveHist.snapshot().minus(Before);
  R.ProveP50Ns = Delta.quantile(0.5);
  R.ProveP99Ns = Delta.quantile(0.99);
  return R;
}

} // namespace

int main() {
  const unsigned Instances =
      static_cast<unsigned>(envOr("SLP_BENCH_INSTANCES", 100));
  const uint64_t FuelBudget = envOr("SLP_BENCH_FUEL", 100000);
  const unsigned Vars = static_cast<unsigned>(envOr("SLP_BENCH_VARS", 14));

  SymbolTable Symbols;
  TermTable Terms(Symbols);
  SplitMix64 Rng(7);
  std::vector<sl::Entailment> Batch;
  for (unsigned I = 0; I != Instances; ++I)
    Batch.push_back(gen::distribution2(Terms, Rng, Vars, 0.7));

  std::printf("Ablation: %u distribution-2 instances, %u variables "
              "(fuel %llu/instance)\n\n",
              Instances, Vars, static_cast<unsigned long long>(FuelBudget));

  struct Config {
    const char *Name;
    sup::SaturationOptions Sat;
  };
  const Config Configs[] = {
      {"full (subsumption + demod)", {}},
      {"no demodulation", {.Demodulation = false}},
      {"no subsumption", {.Subsumption = false}},
      {"bare calculus", {.Subsumption = false, .Demodulation = false}},
  };
  for (const Config &C : Configs) {
    BatchResult R = runSlpWith(Terms, Batch, C.Sat, FuelBudget);
    std::printf("  SLP %-36s %s  (%u valid)\n", C.Name, cell(R).c_str(),
                R.Valid);
    std::printf("      p50 %.0fus p99 %.0fus; %llu model attempts, "
                "%llu nf-cache reuses, %llu sub checks\n",
                R.ProveP50Ns * 1e-3, R.ProveP99Ns * 1e-3,
                static_cast<unsigned long long>(R.Sat.ModelAttempts),
                static_cast<unsigned long long>(R.Sat.NfCacheReuse),
                static_cast<unsigned long long>(R.Sat.SubChecks));
    std::fflush(stdout);
  }

  BatchResult Base = runBerdine(Terms, Batch, FuelBudget);
  std::printf("  %-40s %s  (%u valid)\n",
              "model-free case splitting [Berdine]", cell(Base).c_str(),
              Base.Valid);
  std::printf("      p50 %.0fus p99 %.0fus, %llu cache hits\n",
              Base.ProveP50Ns * 1e-3, Base.ProveP99Ns * 1e-3,
              static_cast<unsigned long long>(Base.CacheHits));
  return 0;
}
