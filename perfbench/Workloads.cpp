//===- perfbench/Workloads.cpp - Benchmark workloads ----------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "engine/Portfolio.h"
#include "gen/Cloning.h"
#include "gen/RandomEntailments.h"
#include "support/Hashing.h"
#include "symexec/Corpus.h"
#include "symexec/SymbolicExec.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace slp;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Table 1 rows vars=16..20 with the paper's (P_lseg, P_ne), as in
/// bench_table1.
struct D1Row {
  unsigned Vars;
  double PLseg, PNe;
};
constexpr D1Row RefuteRows[] = {{16, 0.05, 0.17},
                                {17, 0.05, 0.13},
                                {18, 0.04, 0.20},
                                {19, 0.04, 0.15},
                                {20, 0.04, 0.11}};
constexpr unsigned RefutePerRow = 400;

constexpr unsigned EntailMinVars = 10, EntailMaxVars = 16;
constexpr unsigned EntailPerRow = 400;
constexpr double EntailPNext = 0.7; // The paper's Table 2 setting.

/// Warm-up proves the first WarmupPerRow queries of every row.
constexpr unsigned WarmupPerRow = 4;

constexpr unsigned VerifyMaxCopies = 10;
constexpr unsigned VerifyRepeats = 3;
/// Independently shuffled streams of the verify-vc tasks. With several
/// workers, a stream's time depends on its order: copies of a key that
/// are in flight together are all proved (no in-flight dedup), and
/// heavy tasks may end up on one worker. One order's time differs from
/// another's by up to ~50%, so the workload averages over several.
constexpr unsigned VerifyStreams = 4;

/// Each row draws from its own split stream of the seed, so rows are
/// decorrelated and one seed does not make every row heavy at once.
template <typename GenFn>
void generateRows(Corpus &C, uint64_t Seed, unsigned Rows, unsigned PerRow,
                  GenFn Gen) {
  Clock::time_point T0 = Clock::now();
  for (unsigned Row = 0; Row != Rows; ++Row) {
    SymbolTable Syms;
    TermTable Terms(Syms);
    SplitMix64 Rng = gen::streamRng(Seed, Row);
    for (unsigned I = 0; I != PerRow; ++I) {
      C.Tasks.push_back({sl::str(Terms, Gen(Terms, Rng, Row)), "", Row});
      if (I < WarmupPerRow)
        C.Warmup.push_back(C.Tasks.back());
    }
  }
  C.SweepTasks = C.Tasks.size();
  C.GenSeconds = since(T0);
}

Corpus makeRefute(uint64_t Seed) {
  Corpus C;
  generateRows(C, Seed, std::size(RefuteRows), RefutePerRow,
               [](TermTable &Terms, SplitMix64 &Rng, unsigned Row) {
                 const D1Row &R = RefuteRows[Row];
                 return gen::distribution1(Terms, Rng, R.Vars, R.PLseg,
                                           R.PNe);
               });
  return C;
}

Corpus makeEntail(uint64_t Seed) {
  Corpus C;
  generateRows(C, Seed, EntailMaxVars - EntailMinVars + 1, EntailPerRow,
               [](TermTable &Terms, SplitMix64 &Rng, unsigned Row) {
                 return gen::distribution2(Terms, Rng, EntailMinVars + Row,
                                           EntailPNext);
               });
  return C;
}

/// The VCs of the 18-program symexec corpus cloned x1..x10 (Table 3),
/// each clone submitted VerifyRepeats times, in a seeded shuffled order;
/// VerifyStreams such streams, one after the other, each shuffled with
/// its own split stream of the seed.
Corpus makeVerify(uint64_t Seed) {
  Corpus C;
  SymbolTable Syms;
  TermTable Terms(Syms);

  Clock::time_point T0 = Clock::now();
  std::vector<symexec::VC> VCs;
  for (const symexec::Program &P : symexec::corpus(Terms)) {
    symexec::VcGenResult R = symexec::generateVCs(Terms, P);
    if (!R.ok())
      throw std::runtime_error("symbolic execution failed: " + *R.Error);
    for (symexec::VC &V : R.VCs)
      VCs.push_back(std::move(V));
  }
  C.SymexecSeconds = since(T0);

  T0 = Clock::now();
  std::vector<engine::ProofTask> Distinct;
  for (unsigned Copies = 1; Copies <= VerifyMaxCopies; ++Copies)
    for (const symexec::VC &V : VCs)
      Distinct.push_back(
          {sl::str(Terms, gen::cloneEntailment(Terms, V.E, Copies)),
           V.Name + " x" + std::to_string(Copies), Copies});
  // Warm up on the uncloned VCs: cheap, and the same for every seed.
  C.Warmup.assign(Distinct.begin(), Distinct.begin() + VCs.size());
  for (unsigned S = 0; S != VerifyStreams; ++S) {
    std::vector<engine::ProofTask> Stream;
    for (unsigned Rep = 0; Rep != VerifyRepeats; ++Rep)
      Stream.insert(Stream.end(), Distinct.begin(), Distinct.end());
    SplitMix64 Rng = gen::streamRng(Seed, S);
    for (size_t I = Stream.size(); I > 1; --I)
      std::swap(Stream[I - 1], Stream[Rng.below(I)]);
    C.Tasks.insert(C.Tasks.end(), Stream.begin(), Stream.end());
    // One batch is one whole stream, as slp-verify submits a file. The
    // latency distribution is the same for every order (each distinct
    // clone is proved once, the rest are cache hits), so a sweep covers
    // the first stream only.
    C.Batch = C.SweepTasks = Stream.size();
  }
  C.GenSeconds = since(T0);
  return C;
}

const Workload Workloads[] = {
    {"refute-d1", 1, /*Presolve=*/false, /*Cache=*/false, /*Fuel=*/300,
     /*AllValid=*/false, makeRefute},
    {"entail-d2", 1, /*Presolve=*/true, /*Cache=*/true, /*Fuel=*/100,
     /*AllValid=*/false, makeEntail},
    {"verify-vc", 0, /*Presolve=*/true, /*Cache=*/true, /*Fuel=*/200000,
     /*AllValid=*/true, makeVerify},
};

/// Budget for the Berdine reference: large enough that it decides every
/// query of these rows in practice, bounded so a blowup cannot hang a
/// run (undecided queries are excluded, and counted).
constexpr uint64_t ReferenceFuel = 20'000'000;

} // namespace

uint64_t Corpus::hash() const {
  uint64_t H = hashValue(Tasks.size());
  for (const engine::ProofTask &T : Tasks)
    H = hashCombine(H, hashString(T.Text));
  return H;
}

engine::BatchOptions Workload::options() const {
  engine::BatchOptions O;
  O.Jobs = Jobs ? Jobs
                : std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  O.Presolve = Presolve;
  O.CacheEnabled = Cache;
  O.FuelPerQuery = Fuel;
  return O;
}

const Workload *findWorkload(std::string_view Name) {
  for (const Workload &W : Workloads)
    if (W.Name == Name)
      return &W;
  return nullptr;
}

std::string workloadNames() {
  std::string Out;
  for (const Workload &W : Workloads) {
    if (!Out.empty())
      Out += '|';
    Out += W.Name;
  }
  return Out;
}

std::vector<core::Verdict> computeReference(const Workload &W,
                                            const Corpus &C,
                                            unsigned Threads) {
  std::vector<core::Verdict> Ref(C.Tasks.size(), core::Verdict::Valid);
  if (W.AllValid)
    return Ref;
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    std::unique_ptr<core::EntailmentBackend> Berdine =
        engine::makeBackend(engine::BackendKind::Berdine);
    for (size_t I; (I = Next.fetch_add(1)) < C.Tasks.size();) {
      Fuel F(ReferenceFuel);
      core::BackendResult R = Berdine->prove(C.Tasks[I], F);
      Ref[I] = R.Parsed ? R.V : core::Verdict::Unknown;
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != std::max(1u, Threads); ++T)
    Pool.emplace_back(Work);
  for (std::thread &T : Pool)
    T.join();
  return Ref;
}

namespace {

/// Bump when the way reference verdicts are computed changes (backend,
/// options), so cached files written by the old procedure are redone.
constexpr unsigned ReferenceFormat = 2;

std::string referenceHeader(const Workload &W, uint64_t Seed,
                            const Corpus &C) {
  std::ostringstream OS;
  OS << "perfbench-reference v" << ReferenceFormat << " " << W.Name
     << " seed=" << Seed << " hash=" << C.hash() << " n=" << C.Tasks.size()
     << " fuel=" << ReferenceFuel;
  return OS.str();
}

} // namespace

bool writeReference(const std::string &Path, const Workload &W, uint64_t Seed,
                    const Corpus &C, const std::vector<core::Verdict> &Ref) {
  std::ofstream Out(Path);
  Out << referenceHeader(W, Seed, C) << "\n";
  for (core::Verdict V : Ref)
    Out << core::verdictName(V) << "\n";
  return static_cast<bool>(Out.flush());
}

bool readReference(const std::string &Path, const Workload &W, uint64_t Seed,
                   const Corpus &C, std::vector<core::Verdict> &Ref) {
  std::ifstream In(Path);
  std::string Line;
  if (!std::getline(In, Line) || Line != referenceHeader(W, Seed, C))
    return false;
  Ref.clear();
  while (std::getline(In, Line)) {
    if (Line == "valid")
      Ref.push_back(core::Verdict::Valid);
    else if (Line == "invalid")
      Ref.push_back(core::Verdict::Invalid);
    else if (Line == "unknown")
      Ref.push_back(core::Verdict::Unknown);
    else
      return false;
  }
  return Ref.size() == C.Tasks.size();
}

} // namespace perfbench
