//===- bench/bench_table2.cpp - Reproduces Table 2 ----------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 2 of the paper: batches of random instances of F → G from
/// distribution 2 (random fixed-point-free permutation graph, each
/// edge next with probability p_next = 0.7, right-hand side obtained
/// by folding random maximal paths into lsegs), 10 to 20 variables.
/// These instances exercise the unfolding inferences. Same column and
/// timeout conventions as bench_table1.
///
/// With `--json[=path]` the run additionally writes a machine-readable
/// trajectory (per-row wall clock, verdict counts, and per-row SLP
/// prove-latency p50/p99 from the metrics registry) to
/// BENCH_table2.json, which CI uploads as a perf-baseline artifact.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gen/RandomEntailments.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

using namespace slp;
using namespace slp::bench;

int main(int argc, char **argv) {
  const unsigned Instances =
      static_cast<unsigned>(envOr("SLP_BENCH_INSTANCES", 100));
  const uint64_t FuelBudget = envOr("SLP_BENCH_FUEL", 50000);
  const uint64_t Seed = envOr("SLP_BENCH_SEED", 2);
  const double PNext = 0.7; // The paper's Table 2 setting.

  std::string JsonPath;
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0) {
      JsonPath = "BENCH_table2.json";
    } else if (std::strncmp(argv[I], "--json=", 7) == 0) {
      JsonPath = argv[I] + 7;
    } else {
      std::fprintf(stderr, "usage: bench_table2 [--json[=path]]\n");
      return 2;
    }
  }
  std::unique_ptr<TrajectoryJson> Json;
  if (!JsonPath.empty()) {
    Json = std::make_unique<TrajectoryJson>(JsonPath, "table2");
    if (!Json->ok()) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    Json->config("instances", Instances);
    Json->config("fuel", FuelBudget);
    Json->config("seed", Seed);
  }

  std::printf("Table 2: %u random instances of F -> G per row "
              "(p_next = %.2f, fuel %llu/instance)\n\n",
              Instances, PNext, static_cast<unsigned long long>(FuelBudget));
  std::printf("%5s %6s %7s | %14s %14s %14s %14s\n", "Vars", "Pnext",
              "%Valid", "Greedy[jStar]", "Berdine[SF]", "SLP", "SLP-nopre");

  for (unsigned Vars = 10; Vars <= 20; ++Vars) {
    SymbolTable Symbols;
    TermTable Terms(Symbols);
    SplitMix64 Rng(Seed);
    std::vector<sl::Entailment> Batch;
    Batch.reserve(Instances);
    for (unsigned I = 0; I != Instances; ++I)
      Batch.push_back(gen::distribution2(Terms, Rng, Vars, PNext));

    BatchResult Slp = runSlp(Terms, Batch, FuelBudget);
    BatchResult Berdine = runBerdine(Terms, Batch, FuelBudget);
    BatchResult Greedy = runGreedy(Terms, Batch, FuelBudget);
    // The same SLP pass with the static pre-solver off: the column
    // pair shows what the pre-solver costs or saves per row.
    BatchResult SlpNoPre = runSlpNoPresolve(Terms, Batch, FuelBudget);

    std::printf("%5u %6.2f %6u%% | %14s %14s %14s %14s\n", Vars, PNext,
                100 * Slp.Valid / std::max(1u, Slp.Total),
                cell(Greedy).c_str(), cell(Berdine).c_str(),
                cell(Slp).c_str(), cell(SlpNoPre).c_str());
    std::fflush(stdout);

    if (Json) {
      Json->beginRow();
      Json->field("vars", static_cast<uint64_t>(Vars));
      Json->field("pnext", PNext);
      Json->field("slp_seconds", Slp.Seconds);
      Json->field("slp_solved", static_cast<uint64_t>(Slp.Solved));
      Json->field("slp_valid", static_cast<uint64_t>(Slp.Valid));
      Json->field("slp_presolved", Slp.Presolved);
      Json->field("slp_nopresolve_seconds", SlpNoPre.Seconds);
      Json->field("slp_prove_p50_ns", Slp.ProveP50Ns);
      Json->field("slp_prove_p99_ns", Slp.ProveP99Ns);
      Json->field("slp_cache_hits", Slp.CacheHits);
      Json->field("berdine_seconds", Berdine.Seconds);
      Json->field("berdine_solved", static_cast<uint64_t>(Berdine.Solved));
      Json->field("berdine_valid", static_cast<uint64_t>(Berdine.Valid));
      Json->field("greedy_seconds", Greedy.Seconds);
      Json->field("greedy_solved", static_cast<uint64_t>(Greedy.Solved));
      Json->field("greedy_valid", static_cast<uint64_t>(Greedy.Valid));
      Json->field("model_attempts", Slp.Sat.ModelAttempts);
      Json->field("nf_cache_reuse", Slp.Sat.NfCacheReuse);
      Json->endRow();
    }
  }
  if (Json)
    std::fprintf(stderr, "wrote %s\n", JsonPath.c_str());
  return 0;
}
