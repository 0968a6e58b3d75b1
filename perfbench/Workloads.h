//===- perfbench/Workloads.h - Benchmark workloads --------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three benchmark workloads: the paper's Table 1 and Table 2
/// random distributions and the Table 3 cloned symbolic-execution VCs,
/// each built from a seed and proved with a fixed engine configuration.
/// Also the reference verdicts every run is checked against, which come
/// from a procedure independent of the SLP prover.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_PERFBENCH_WORKLOADS_H
#define SLP_PERFBENCH_WORKLOADS_H

#include "engine/BatchProver.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// The queries of one workload instance, plus how long building them
/// took, split by the module that did the work.
struct Corpus {
  std::vector<slp::engine::ProofTask> Tasks;
  /// A small, cheap set of queries shaped like Tasks that set-up proves
  /// once before the first timed pass.
  std::vector<slp::engine::ProofTask> Warmup;
  /// Tasks per timed run() of a throughput pass; each batch of Tasks
  /// goes to a fresh engine (cold cache).
  size_t Batch = 100;
  /// A latency sweep times the first SweepTasks tasks, each alone.
  size_t SweepTasks = 0;
  double GenSeconds = 0;     ///< gen:: generators/cloning and rendering.
  double SymexecSeconds = 0; ///< symexec corpus + VC generation.

  /// Hash of every task text, in order; ties a reference file to the
  /// exact corpus it was computed for.
  uint64_t hash() const;
};

struct Workload {
  std::string_view Name;
  unsigned Jobs; ///< Engine workers; 0 = min(4, hardware threads).
  bool Presolve;
  bool Cache;
  uint64_t Fuel; ///< Per-query inference budget.
  /// Every query is valid by construction (no Berdine reference run).
  bool AllValid;
  Corpus (*Make)(uint64_t Seed);

  /// The engine configuration every timed pass uses.
  slp::engine::BatchOptions options() const;
};

/// The workload named \p Name, or null.
const Workload *findWorkload(std::string_view Name);

/// Names of all workloads, for usage messages.
std::string workloadNames();

/// Reference verdicts, one per task: "valid" for AllValid workloads,
/// otherwise the Berdine baseline (a separate complete procedure) run
/// on the raw task text with a generous budget on \p Threads threads.
/// Unknown means the reference did not decide; such queries are
/// excluded from the correctness check.
std::vector<slp::core::Verdict> computeReference(const Workload &W,
                                                 const Corpus &C,
                                                 unsigned Threads);

/// Reference file I/O: a header naming the reference-format version,
/// workload, seed, corpus hash and size and the reference fuel, then one
/// verdict per line. read() returns false if the file is
/// missing or was written for another corpus.
bool writeReference(const std::string &Path, const Workload &W,
                    uint64_t Seed, const Corpus &C,
                    const std::vector<slp::core::Verdict> &Ref);
bool readReference(const std::string &Path, const Workload &W, uint64_t Seed,
                   const Corpus &C, std::vector<slp::core::Verdict> &Ref);

} // namespace perfbench

#endif // SLP_PERFBENCH_WORKLOADS_H
