//===- bench/BenchUtil.h - Shared harness helpers ---------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table-reproduction harnesses: every backend
/// (SLP, the two baselines, and the racing portfolio) measured through
/// the same engine path, per-instance fuel budgets standing in for the
/// paper's 10-minute wall-clock timeout, and row formatting.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_BENCH_BENCHUTIL_H
#define SLP_BENCH_BENCHUTIL_H

#include "core/Prover.h"
#include "engine/BatchProver.h"
#include "engine/Portfolio.h"
#include "obs/Metrics.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace slp {
namespace bench {

/// Reads an unsigned configuration value from the environment, so the
/// harnesses can be scaled up to the paper's full 1000-instance rows
/// (e.g. SLP_BENCH_INSTANCES=1000) without recompiling.
inline uint64_t envOr(const char *Name, uint64_t Default) {
  const char *V = std::getenv(Name);
  return V ? std::strtoull(V, nullptr, 10) : Default;
}

/// Outcome of running one prover over a batch of entailments.
struct BatchResult {
  double Seconds = 0;     ///< Total wall-clock time.
  unsigned Solved = 0;    ///< Instances decided within the fuel budget.
  unsigned Valid = 0;     ///< Instances reported valid.
  unsigned Total = 0;
  /// Saturation counters summed over the run (SLP runs only).
  sup::SaturationStats Sat;
  /// Memoizing-cache hits over the run (0 unless SLP_BENCH_CACHE=1).
  uint64_t CacheHits = 0;
  /// Queries the static pre-solver decided without running the prover.
  uint64_t Presolved = 0;
  /// Per-query prove-latency percentiles over this run, from the
  /// delta of the registry's `engine.phase.prove_ns` histogram
  /// between the run's start and end (cache hits and parse errors
  /// record no prove sample). 0 when nothing was proved.
  double ProveP50Ns = 0, ProveP99Ns = 0;
  /// Per-backend win/loss/time tallies (portfolio runs: one entry per
  /// racing member; single-backend runs: one entry).
  std::vector<engine::BackendTally> Backends;
};

/// Renders "12.34" or "12.34 (57%)" when some instances timed out,
/// mirroring the paper's "(N%)" notation.
inline std::string cell(const BatchResult &R) {
  char Buf[64];
  if (R.Solved == R.Total) {
    std::snprintf(Buf, sizeof(Buf), "%10.2f", R.Seconds);
    return Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "%7.2f (%d%%)", R.Seconds,
                static_cast<int>(100.0 * R.Solved / R.Total));
  return Buf;
}

/// Runs one backend over a batch with a per-instance fuel budget,
/// through the concurrent batch engine, so every table column
/// exercises the same code path production traffic takes — per-query
/// parse, canonicalization, and proving the *canonical* form. (Under
/// tight fuel budgets the canonical renaming can shift individual
/// borderline instances across the Solved line relative to proving
/// the raw instance; verdicts themselves are unchanged — validity is
/// renaming-invariant.) SLP_BENCH_JOBS sets the worker count (default
/// 1) and SLP_BENCH_CACHE=1 enables the memoizing entailment cache
/// (default off).
///
/// "Solved" counts definitive verdicts within the budget; for the
/// incomplete unfolder that is exactly "proofs found", reproducing the
/// paper's jStar accounting.
inline BatchResult runBackend(engine::BackendKind Backend, TermTable &Terms,
                              const std::vector<sl::Entailment> &Batch,
                              uint64_t FuelPerInstance,
                              bool Presolve = true) {
  engine::BatchOptions Opts;
  Opts.Jobs = static_cast<unsigned>(envOr("SLP_BENCH_JOBS", 1));
  Opts.CacheEnabled = envOr("SLP_BENCH_CACHE", 0) != 0;
  Opts.FuelPerQuery = FuelPerInstance;
  Opts.Backend = Backend;
  Opts.Presolve = Presolve;

  std::vector<std::string> Queries;
  Queries.reserve(Batch.size());
  for (const sl::Entailment &E : Batch)
    Queries.push_back(sl::str(Terms, E));

  BatchResult R;
  R.Total = static_cast<unsigned>(Batch.size());
  // The registry accumulates over the whole process; the before/after
  // histogram delta isolates this run's prove-latency distribution.
  const obs::HistogramSnapshot Before =
      obs::metrics().histogram("engine.phase.prove_ns").snapshot();
  Timer T;
  engine::BatchProver Engine(Opts);
  for (const engine::QueryResult &QR : Engine.run(Queries)) {
    if (QR.Status != engine::QueryStatus::Ok)
      continue; // Counted as unsolved; warned about below.
    if (QR.V != core::Verdict::Unknown)
      ++R.Solved;
    if (QR.V == core::Verdict::Valid)
      ++R.Valid;
  }
  R.Seconds = T.seconds();
  R.Sat = Engine.stats().Sat;
  R.CacheHits = Engine.stats().CacheHits;
  R.Presolved = Engine.stats().PresolvedValid;
  R.Backends = Engine.stats().Backends;
  obs::HistogramSnapshot Prove =
      obs::metrics().histogram("engine.phase.prove_ns").snapshot().minus(
          Before);
  R.ProveP50Ns = Prove.quantile(0.5);
  R.ProveP99Ns = Prove.quantile(0.99);
  if (Engine.stats().ParseErrors)
    std::fprintf(stderr,
                 "warning: %llu of %zu rendered entailments failed to "
                 "re-parse; %s row undercounts Solved\n",
                 static_cast<unsigned long long>(Engine.stats().ParseErrors),
                 Queries.size(),
                 engine::backendKindName(Backend));
  return R;
}

inline BatchResult runSlp(TermTable &Terms,
                          const std::vector<sl::Entailment> &Batch,
                          uint64_t FuelPerInstance) {
  return runBackend(engine::BackendKind::Slp, Terms, Batch,
                    FuelPerInstance);
}

/// The SLP column with the static pre-solver disabled (the tables'
/// SLP-nopre column and the trajectories' slp_nopresolve_seconds).
inline BatchResult runSlpNoPresolve(TermTable &Terms,
                                    const std::vector<sl::Entailment> &Batch,
                                    uint64_t FuelPerInstance) {
  return runBackend(engine::BackendKind::Slp, Terms, Batch,
                    FuelPerInstance, /*Presolve=*/false);
}

/// Races slp | berdine | unfolding per instance; BatchResult::Backends
/// carries the per-member win counts.
inline BatchResult runPortfolio(TermTable &Terms,
                                const std::vector<sl::Entailment> &Batch,
                                uint64_t FuelPerInstance) {
  return runBackend(engine::BackendKind::Portfolio, Terms, Batch,
                    FuelPerInstance);
}

/// Minimal streaming writer for the bench-trajectory JSON artifacts
/// (BENCH_table1.json and friends): one top-level object holding run
/// configuration scalars and a "rows" array of flat objects. Values
/// are numbers only, so no string escaping is needed.
class TrajectoryJson {
public:
  TrajectoryJson(const std::string &Path, const std::string &Bench)
      : Out(std::fopen(Path.c_str(), "w")) {
    if (Out)
      std::fprintf(Out, "{\n  \"bench\": \"%s\"", Bench.c_str());
  }

  ~TrajectoryJson() {
    if (!Out)
      return;
    if (InRows)
      std::fprintf(Out, "\n  ]");
    std::fprintf(Out, "\n}\n");
    std::fclose(Out);
  }

  bool ok() const { return Out != nullptr; }

  /// Adds a run-configuration scalar; only valid before the first row.
  void config(const char *Key, uint64_t Value) {
    if (Out)
      std::fprintf(Out, ",\n  \"%s\": %llu", Key,
                   static_cast<unsigned long long>(Value));
  }

  /// Starts the next row object.
  void beginRow() {
    if (!Out)
      return;
    std::fprintf(Out, InRows ? ",\n    {" : ",\n  \"rows\": [\n    {");
    InRows = true;
    FirstField = true;
  }

  void field(const char *Key, uint64_t Value) {
    if (Out)
      std::fprintf(Out, "%s\"%s\": %llu", sep(), Key,
                   static_cast<unsigned long long>(Value));
  }

  void field(const char *Key, double Value) {
    if (Out)
      std::fprintf(Out, "%s\"%s\": %.6f", sep(), Key, Value);
  }

  void endRow() {
    if (Out)
      std::fprintf(Out, "}");
  }

private:
  const char *sep() {
    const char *S = FirstField ? "" : ", ";
    FirstField = false;
    return S;
  }

  std::FILE *Out;
  bool InRows = false;
  bool FirstField = true;
};

/// Runs the complete Berdine-style baseline over a batch (through the
/// engine and the backend abstraction, like every other column). The
/// static pre-solver is off, so the column measures the baseline
/// itself.
inline BatchResult runBerdine(TermTable &Terms,
                              const std::vector<sl::Entailment> &Batch,
                              uint64_t FuelPerInstance) {
  return runBackend(engine::BackendKind::Berdine, Terms, Batch,
                    FuelPerInstance, /*Presolve=*/false);
}

/// Runs the greedy jStar-style prover over a batch. "Solved" counts
/// proofs found; the prover is incomplete, so valid instances it
/// cannot prove show up as unsolved. The pre-solver is off: ahead of
/// the unfolder it would prove Valid instances that the unfolder
/// cannot.
inline BatchResult runGreedy(TermTable &Terms,
                             const std::vector<sl::Entailment> &Batch,
                             uint64_t FuelPerInstance) {
  return runBackend(engine::BackendKind::Unfolding, Terms, Batch,
                    FuelPerInstance, /*Presolve=*/false);
}

} // namespace bench
} // namespace slp

#endif // SLP_BENCH_BENCHUTIL_H
