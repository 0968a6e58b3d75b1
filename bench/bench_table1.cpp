//===- bench/bench_table1.cpp - Reproduces Table 1 ----------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 1 of the paper: batches of random instances of F → ⊥ from
/// distribution 1, 10 to 20 variables, with the P_lseg / P_≠
/// parameters the paper lists per row (calibrated there to ≈50% valid
/// instances). Columns: the greedy jStar-style prover, the complete
/// Smallfoot-style prover, SLP, and SLP with the static pre-solver
/// off (SLP-nopre). Cells are seconds for the whole batch; "(N%)"
/// marks the fraction of instances decided before the per-instance
/// fuel budget ran out, mirroring the paper's 10-minute timeout
/// notation.
///
/// Defaults are sized for a quick run (100 instances/row); set
/// SLP_BENCH_INSTANCES=1000 for the paper's full batch size and
/// SLP_BENCH_FUEL to change the per-instance budget.
///
/// With `--json[=path]` the run additionally writes a machine-readable
/// trajectory (per-row wall clock, verdict counts for every column,
/// plus the model-attempt counters) to BENCH_table1.json, which CI
/// uploads as an artifact so future changes have a perf baseline to
/// diff against. `--portfolio` adds a fourth column racing
/// slp|berdine|unfolding per instance and reports each member's win
/// count (and per-member wins in the JSON rows).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gen/RandomEntailments.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

using namespace slp;
using namespace slp::bench;

int main(int argc, char **argv) {
  const unsigned Instances =
      static_cast<unsigned>(envOr("SLP_BENCH_INSTANCES", 100));
  const uint64_t FuelBudget = envOr("SLP_BENCH_FUEL", 12000);
  const uint64_t Seed = envOr("SLP_BENCH_SEED", 1);

  std::string JsonPath;
  bool WithPortfolio = false;
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0) {
      JsonPath = "BENCH_table1.json";
    } else if (std::strncmp(argv[I], "--json=", 7) == 0) {
      JsonPath = argv[I] + 7;
    } else if (std::strcmp(argv[I], "--portfolio") == 0) {
      WithPortfolio = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_table1 [--json[=path]] [--portfolio]\n");
      return 2;
    }
  }
  std::unique_ptr<TrajectoryJson> Json;
  if (!JsonPath.empty()) {
    Json = std::make_unique<TrajectoryJson>(JsonPath, "table1");
    if (!Json->ok()) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    Json->config("instances", Instances);
    Json->config("fuel", FuelBudget);
    Json->config("seed", Seed);
  }

  // Per-row (P_lseg, P_≠) exactly as printed in the paper's Table 1.
  struct Row {
    unsigned Vars;
    double PLseg;
    double PNe;
  };
  const Row Rows[] = {
      {10, 0.10, 0.20}, {11, 0.09, 0.15}, {12, 0.09, 0.11},
      {13, 0.08, 0.11}, {14, 0.07, 0.11}, {15, 0.06, 0.12},
      {16, 0.05, 0.17}, {17, 0.05, 0.13}, {18, 0.04, 0.20},
      {19, 0.04, 0.15}, {20, 0.04, 0.11},
  };

  std::printf("Table 1: %u random instances of F -> false per row "
              "(fuel %llu/instance)\n\n",
              Instances, static_cast<unsigned long long>(FuelBudget));
  std::printf("%5s %6s %5s %7s | %14s %14s %14s %14s", "Vars", "Plseg",
              "Pne", "%Valid", "Greedy[jStar]", "Berdine[SF]", "SLP",
              "SLP-nopre");
  if (WithPortfolio)
    std::printf(" %14s", "Portfolio");
  std::printf("\n");

  sup::SaturationStats SlpSat; // Summed over the rows.
  std::map<std::string, uint64_t> PortfolioWins;
  for (const Row &R : Rows) {
    SymbolTable Symbols;
    TermTable Terms(Symbols);
    SplitMix64 Rng(Seed);
    std::vector<sl::Entailment> Batch;
    Batch.reserve(Instances);
    for (unsigned I = 0; I != Instances; ++I)
      Batch.push_back(
          gen::distribution1(Terms, Rng, R.Vars, R.PLseg, R.PNe));

    BatchResult Slp = runSlp(Terms, Batch, FuelBudget);
    BatchResult Berdine = runBerdine(Terms, Batch, FuelBudget);
    BatchResult Greedy = runGreedy(Terms, Batch, FuelBudget);
    // The same SLP pass with the static pre-solver off: the column
    // pair shows what the pre-solver costs or saves per row.
    BatchResult SlpNoPre = runSlpNoPresolve(Terms, Batch, FuelBudget);
    BatchResult Portfolio;
    if (WithPortfolio) {
      Portfolio = runPortfolio(Terms, Batch, FuelBudget);
      for (const engine::BackendTally &T : Portfolio.Backends)
        PortfolioWins[T.Name] += T.Wins;
    }

    std::printf("%5u %6.2f %5.2f %6u%% | %14s %14s %14s %14s", R.Vars,
                R.PLseg, R.PNe, 100 * Slp.Valid / std::max(1u, Slp.Total),
                cell(Greedy).c_str(), cell(Berdine).c_str(),
                cell(Slp).c_str(), cell(SlpNoPre).c_str());
    if (WithPortfolio)
      std::printf(" %14s", cell(Portfolio).c_str());
    std::printf("\n");
    std::fflush(stdout);
    SlpSat += Slp.Sat;

    if (Json) {
      Json->beginRow();
      Json->field("vars", static_cast<uint64_t>(R.Vars));
      Json->field("plseg", R.PLseg);
      Json->field("pne", R.PNe);
      Json->field("slp_seconds", Slp.Seconds);
      Json->field("slp_solved", static_cast<uint64_t>(Slp.Solved));
      Json->field("slp_valid", static_cast<uint64_t>(Slp.Valid));
      Json->field("slp_presolved", Slp.Presolved);
      Json->field("slp_nopresolve_seconds", SlpNoPre.Seconds);
      Json->field("berdine_seconds", Berdine.Seconds);
      Json->field("berdine_solved", static_cast<uint64_t>(Berdine.Solved));
      Json->field("berdine_valid", static_cast<uint64_t>(Berdine.Valid));
      Json->field("greedy_seconds", Greedy.Seconds);
      Json->field("greedy_solved", static_cast<uint64_t>(Greedy.Solved));
      Json->field("greedy_valid", static_cast<uint64_t>(Greedy.Valid));
      if (WithPortfolio) {
        Json->field("portfolio_seconds", Portfolio.Seconds);
        Json->field("portfolio_solved",
                    static_cast<uint64_t>(Portfolio.Solved));
        Json->field("portfolio_valid",
                    static_cast<uint64_t>(Portfolio.Valid));
        for (const engine::BackendTally &T : Portfolio.Backends)
          Json->field(("portfolio_" + T.Name + "_wins").c_str(), T.Wins);
      }
      Json->field("model_attempts", Slp.Sat.ModelAttempts);
      Json->field("gen_replayed_from", Slp.Sat.GenReplayedFrom);
      Json->field("cert_skipped", Slp.Sat.CertSkipped);
      Json->field("nf_cache_reuse", Slp.Sat.NfCacheReuse);
      Json->field("slp_cache_hits", Slp.CacheHits);
      Json->field("slp_prove_p50_ns", Slp.ProveP50Ns);
      Json->field("slp_prove_p99_ns", Slp.ProveP99Ns);
      Json->endRow();
    }
  }

  std::printf("\nSLP subsumption index: %llu candidate checks vs %llu "
              "full-DB-scan equivalent (%.1fx pruning); "
              "%llu fwd / %llu bwd deletions\n",
              static_cast<unsigned long long>(SlpSat.SubChecks),
              static_cast<unsigned long long>(SlpSat.SubScanBaseline),
              SlpSat.SubChecks
                  ? static_cast<double>(SlpSat.SubScanBaseline) /
                        SlpSat.SubChecks
                  : 0.0,
              static_cast<unsigned long long>(SlpSat.SubsumedFwd),
              static_cast<unsigned long long>(SlpSat.SubsumedBwd));
  std::printf("SLP model-guided saturation: %llu attempts, %llu gen "
              "positions replay-skipped, %llu cert checks skipped, "
              "%llu nf-cache reuses\n",
              static_cast<unsigned long long>(SlpSat.ModelAttempts),
              static_cast<unsigned long long>(SlpSat.GenReplayedFrom),
              static_cast<unsigned long long>(SlpSat.CertSkipped),
              static_cast<unsigned long long>(SlpSat.NfCacheReuse));
  if (WithPortfolio) {
    std::printf("Portfolio wins by backend:");
    for (const auto &[Name, Wins] : PortfolioWins)
      std::printf(" %s=%llu", Name.c_str(),
                  static_cast<unsigned long long>(Wins));
    std::printf("\n");
  }
  std::printf("\nNote: the greedy prover is incomplete; its \"(N%%)\" counts "
              "proofs found,\nso it never reaches 100%% on mixed batches.\n");
  if (Json)
    std::fprintf(stderr, "wrote %s\n", JsonPath.c_str());
  return 0;
}
