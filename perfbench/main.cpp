//===- perfbench/main.cpp - The SLP benchmark -----------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// slpbench drives the prover only through its public API. Three modes:
///
///   reference  compute (or reuse) the workload's reference verdicts
///   measure    end-to-end metrics, tracing off
///   trace      per-layer metrics from the sequential replay,
///              plus a Chrome trace and a metrics-registry dump
///
/// Common flags: --workload NAME --seed N. See README.md for the metric
/// definitions; run.py is the entry point that builds and sequences the
/// modes. The last stdout line of measure/trace is the result object.
///
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Workloads.h"

#include "obs/Metrics.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace slp;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Fewest throughput passes, and fewest latency sweeps, per measure run.
constexpr size_t MinRounds = 3;

struct Args {
  std::string Mode, Workload, RefPath, TraceOut, MetricsOut;
  uint64_t Seed = 1;
  double Seconds = 10;
  unsigned Flip = 0;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: slpbench reference|measure|trace --workload %s "
               "--seed N --reference FILE [--seconds S] "
               "[--flip K] [--trace-out FILE --metrics-out FILE]\n",
               workloadNames().c_str());
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  if (Argc < 2)
    usage();
  Args A;
  A.Mode = Argv[1];
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--reference")
      A.RefPath = V;
    else if (K == "--flip")
      A.Flip = static_cast<unsigned>(std::atoi(V.c_str()));
    else if (K == "--trace-out")
      A.TraceOut = V;
    else if (K == "--metrics-out")
      A.MetricsOut = V;
    else
      usage();
  }
  if (Argc % 2 != 0 || A.Workload.empty() || A.RefPath.empty())
    usage();
  return A;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * (V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - Lo);
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double minOf(const std::vector<double> &V) {
  return *std::min_element(V.begin(), V.end());
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0; // Linux reports KiB.
}

/// Pins the calling thread to one allowed CPU after another. Other
/// tenants of the host slow each vCPU in phases of their own, so
/// spreading the timed units of a single-threaded workload over all
/// vCPUs lets the fastest unit reflect the program rather than one
/// core's neighbour (see README.md, Noise).
class CpuRotation {
public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(All), &All) == 0)
      for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
        if (CPU_ISSET(Cpu, &All))
          Cpus.push_back(Cpu);
  }
  ~CpuRotation() { unpin(); }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  void pinNext() {
    if (Cpus.empty())
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Next++ % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }

  /// Back to every allowed CPU; threads created afterwards (the
  /// engine's workers) inherit this mask.
  void unpin() {
    if (!Cpus.empty())
      sched_setaffinity(0, sizeof(All), &All);
  }

private:
  cpu_set_t All;
  std::vector<int> Cpus;
  size_t Next = 0;
};

/// The result object: correctness counts plus named metrics.
class Report {
public:
  void metric(const char *Name, double Value, const char *Unit) {
    Metrics.push_back({Name, Value, Unit});
    std::fprintf(stderr, "  %-28s %16.6f %s\n", Name, Value, Unit);
  }

  /// Prints the one-line JSON object; returns the process exit code.
  int print(uint64_t Attempted, uint64_t Failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                Failed ? "false" : "true",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed));
    for (size_t I = 0; I != Metrics.size(); ++I)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Metrics[I].Name, Metrics[I].Value,
                  Metrics[I].Unit);
    std::printf("}}\n");
    std::fflush(stdout);
    return Failed ? 1 : 0;
  }

private:
  struct Entry {
    const char *Name;
    double Value;
    const char *Unit;
  };
  std::vector<Entry> Metrics;
};

/// Checks verdicts against the reference and against the first
/// observation of the same query (verdicts are deterministic).
class Checker {
public:
  explicit Checker(std::vector<core::Verdict> Ref)
      : Ref(std::move(Ref)), First(this->Ref.size(), -1) {}

  void check(size_t I, bool ParseError, core::Verdict V) {
    ++Attempted;
    bool Bad = ParseError;
    if (!ParseError && Ref[I] != core::Verdict::Unknown &&
        V != core::Verdict::Unknown && V != Ref[I])
      Bad = true;
    if (First[I] < 0)
      First[I] = static_cast<int>(V);
    else if (First[I] != static_cast<int>(V))
      Bad = true;
    if (Bad && Failed++ < 5)
      std::fprintf(stderr, "MISMATCH query %zu: got %s, reference %s\n", I,
                   ParseError ? "parse-error" : core::verdictName(V),
                   core::verdictName(Ref[I]));
  }

  void check(const std::vector<engine::QueryResult> &Rs) {
    for (size_t I = 0; I != Rs.size(); ++I)
      check(I, Rs[I].Status != engine::QueryStatus::Ok, Rs[I].V);
  }

  size_t excluded() const {
    return std::count(Ref.begin(), Ref.end(), core::Verdict::Unknown);
  }

  uint64_t Attempted = 0, Failed = 0;

private:
  std::vector<core::Verdict> Ref;
  std::vector<int> First;
};

std::vector<core::Verdict> loadReference(const Args &A, const Workload &W,
                                         const Corpus &C) {
  std::vector<core::Verdict> Ref;
  if (!readReference(A.RefPath, W, A.Seed, C, Ref)) {
    std::fprintf(stderr, "error: no reference for this corpus in %s\n",
                 A.RefPath.c_str());
    std::exit(1);
  }
  // Self-test hook: flip the first K decided verdicts, which must make
  // the run fail.
  for (unsigned Flipped = 0, I = 0; Flipped < A.Flip && I < Ref.size(); ++I)
    if (Ref[I] != core::Verdict::Unknown) {
      Ref[I] = Ref[I] == core::Verdict::Valid ? core::Verdict::Invalid
                                               : core::Verdict::Valid;
      ++Flipped;
    }
  return Ref;
}

/// Engine construction plus a warm-up run of the corpus's warm-up
/// tasks. The engine is thrown away, so every timed engine starts cold.
void warmUpEngine(const Workload &W, const Corpus &C) {
  engine::BatchProver(W.options()).run(C.Warmup);
}

/// A throughput pass feeds the workload, in order, as consecutive
/// batches of C.Batch tasks, each one run() on a fresh engine (cold
/// cache). With one worker, run() proves in input order on the calling
/// thread, so the batches of a pass do what one whole-workload run()
/// does, apart from cache hits across batches.
std::vector<std::vector<engine::ProofTask>> passBatches(const Corpus &C) {
  std::vector<std::vector<engine::ProofTask>> Batches;
  for (size_t I = 0; I < C.Tasks.size(); I += C.Batch)
    Batches.emplace_back(C.Tasks.begin() + I,
                         C.Tasks.begin() +
                             std::min(C.Tasks.size(), I + C.Batch));
  return Batches;
}

struct Pass {
  std::vector<engine::QueryResult> Results;
  std::vector<double> BatchSeconds;
  /// The engine's per-run() statistics, summed over the batches.
  engine::BatchStats Stats;
};

Pass runPass(const engine::BatchOptions &Opts,
             const std::vector<std::vector<engine::ProofTask>> &Batches) {
  Pass P;
  for (const std::vector<engine::ProofTask> &B : Batches) {
    engine::BatchProver Engine(Opts);
    Clock::time_point T0 = Clock::now();
    std::vector<engine::QueryResult> Part = Engine.run(B);
    P.BatchSeconds.push_back(since(T0));
    P.Results.insert(P.Results.end(), std::make_move_iterator(Part.begin()),
                     std::make_move_iterator(Part.end()));
    const engine::BatchStats &S = Engine.stats();
    engine::BatchStats &T = P.Stats;
    T.Seconds += S.Seconds;
    T.CacheHits += S.CacheHits;
    T.CacheMisses += S.CacheMisses;
    T.Steals += S.Steals;
    T.StealAttempts += S.StealAttempts;
    T.ParseSeconds += S.ParseSeconds;
    T.PresolveSeconds += S.PresolveSeconds;
    T.ProveSeconds += S.ProveSeconds;
    T.CacheSeconds += S.CacheSeconds;
    T.WorkersUsed = std::max(T.WorkersUsed, S.WorkersUsed);
  }
  return P;
}

int runReference(const Args &A, const Workload &W) {
  Corpus C = W.Make(A.Seed);
  std::vector<core::Verdict> Ref;
  if (readReference(A.RefPath, W, A.Seed, C, Ref)) {
    std::fprintf(stderr, "reference: reusing %s\n", A.RefPath.c_str());
    return 0;
  }
  unsigned Threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  Clock::time_point T0 = Clock::now();
  Ref = computeReference(W, C, Threads);
  std::fprintf(stderr, "reference: %zu verdicts in %.2fs (%u threads)\n",
               Ref.size(), since(T0), Threads);
  if (!writeReference(A.RefPath, W, A.Seed, C, Ref)) {
    std::fprintf(stderr, "error: cannot write %s\n", A.RefPath.c_str());
    return 1;
  }
  return 0;
}

int runMeasure(const Args &A, const Workload &W) {
  const engine::BatchOptions Opts = W.options();

  // Set-up is timed once before the first timed unit and once more
  // before every later one, so that its median samples the whole run.
  std::vector<double> SetupSeconds;
  auto SetUp = [&] {
    Clock::time_point T0 = Clock::now();
    Corpus C = W.Make(A.Seed);
    warmUpEngine(W, C);
    SetupSeconds.push_back(since(T0));
    return C;
  };
  const Corpus C = SetUp();
  Checker Check(loadReference(A, W, C));
  const size_t N = C.Tasks.size(), SweepN = C.SweepTasks;
  // The highest percentile <= 99 with at least ten samples beyond it.
  const double TailQ = std::min(0.99, 1.0 - 10.0 / SweepN);

  const std::vector<std::vector<engine::ProofTask>> Batches = passBatches(C);

  // Throughput passes and latency sweeps, interleaved so that each gets
  // about half the budget and both sample the same machine conditions.
  // A latency sweep is a closed loop with one client: each query alone
  // as a one-task run() on a long-lived engine, fresh for every batch
  // as in a pass, so every sweep sees the same cache history.
  //
  // Interference from other tenants only ever adds time, and it comes
  // and goes within a run. So each batch's and each query's fastest
  // time over the run is kept: qps divides the queries by the sum of
  // the fastest batch times, and the latency percentiles are taken over
  // every query's fastest time (see README.md, Noise).
  std::vector<double> BatchBest(Batches.size(), 1e300);
  std::vector<double> QueryBestUs(SweepN, 1e300);
  std::vector<double> PassSeconds, SweepSeconds;
  double PassTotal = 0, SweepTotal = 0;
  size_t Decided = 0;
  CpuRotation Cores;
  Clock::time_point Start = Clock::now();
  // Stop before a unit that would end past the budget (its length is
  // estimated by the last unit of its kind), once both minimums are met.
  while (PassSeconds.size() < MinRounds || SweepSeconds.size() < MinRounds ||
         since(Start) + (PassTotal <= SweepTotal ? PassSeconds.back()
                                                 : SweepSeconds.back()) <=
             A.Seconds) {
    if (!PassSeconds.empty())
      SetUp();
    if (PassTotal <= SweepTotal) {
      if (Opts.Jobs == 1)
        Cores.pinNext();
      else
        Cores.unpin();
      Pass P = runPass(Opts, Batches);
      double Seconds = 0;
      for (size_t K = 0; K != Batches.size(); ++K) {
        BatchBest[K] = std::min(BatchBest[K], P.BatchSeconds[K]);
        Seconds += P.BatchSeconds[K];
      }
      PassSeconds.push_back(Seconds);
      PassTotal += Seconds;
      Check.check(P.Results);
      if (PassSeconds.size() == 1)
        for (const engine::QueryResult &R : P.Results)
          Decided += R.Status == engine::QueryStatus::Ok &&
                     R.V != core::Verdict::Unknown;
      continue;
    }
    // A one-task run() proves on the calling thread whatever Jobs is.
    Cores.pinNext();
    std::optional<engine::BatchProver> Engine;
    Clock::time_point SweepStart = Clock::now();
    for (size_t I = 0; I != SweepN; ++I) {
      if (I % C.Batch == 0)
        Engine.emplace(Opts);
      std::vector<engine::ProofTask> One{C.Tasks[I]};
      Clock::time_point T0 = Clock::now();
      std::vector<engine::QueryResult> Rs = Engine->run(One);
      double Us =
          std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
      QueryBestUs[I] = std::min(QueryBestUs[I], Us);
      Check.check(I, Rs[0].Status != engine::QueryStatus::Ok, Rs[0].V);
    }
    SweepSeconds.push_back(since(SweepStart));
    SweepTotal += SweepSeconds.back();
  }

  double BestPass = 0;
  for (double S : BatchBest)
    BestPass += S;
  std::fprintf(stderr,
               "%s seed %llu: %zu queries, %zu reference-undecided "
               "(excluded from the check); %zu passes of %zu batches, "
               "sum of fastest batches %.3f s; %zu sweeps of %zu queries, "
               "tail percentile p%.1f; %zu set-ups\n",
               std::string(W.Name).c_str(),
               static_cast<unsigned long long>(A.Seed), N, Check.excluded(),
               PassSeconds.size(), Batches.size(), BestPass,
               SweepSeconds.size(), SweepN, 100 * TailQ, SetupSeconds.size());
  auto PrintAll = [](const char *What, const std::vector<double> &V) {
    std::fprintf(stderr, "  %s:", What);
    for (double S : V)
      std::fprintf(stderr, " %.3f", S);
    std::fprintf(stderr, "\n");
  };
  PrintAll("pass s", PassSeconds);
  PrintAll("sweep s", SweepSeconds);

  Report Rep;
  Rep.metric("qps", N / BestPass, "queries/s");
  Rep.metric("query_p50_us", quantile(QueryBestUs, 0.5), "us");
  Rep.metric("query_p99_us", quantile(QueryBestUs, TailQ), "us");
  Rep.metric("decided_frac", ratio(Decided, N), "ratio");
  Rep.metric("setup_s", median(SetupSeconds), "s");
  Rep.metric("peak_rss_mb", peakRssMb(), "MB");
  return Rep.print(Check.Attempted, Check.Failed);
}

int runTrace(const Args &A, const Workload &W) {
  const engine::BatchOptions Opts = W.options();
  Corpus C = W.Make(A.Seed);
  Clock::time_point T0 = Clock::now();
  warmUpEngine(W, C);
  double EngineSetup = since(T0);
  Checker Check(loadReference(A, W, C));
  const size_t N = C.Tasks.size();

  // The product path, untraced: one throughput pass, as in measure mode.
  Pass P = runPass(Opts, passBatches(C));
  const std::vector<engine::QueryResult> &Rs = P.Results;
  const engine::BatchStats &Stats = P.Stats;
  Check.check(Rs);

  // Replay pairs (untraced, traced) for the budget. As in measure mode,
  // the fastest replay of each kind is the one reported; the fastest
  // traced replay supplies spans and counters.
  std::vector<double> Untraced, Traced;
  ReplayResult Rep;
  CpuRotation Cores;
  Clock::time_point Phase = Clock::now();
  do {
    Cores.pinNext();
    Untraced.push_back(replay(C.Tasks, Opts, C.Batch, false).WallSeconds);
    Cores.pinNext();
    ReplayResult R = replay(C.Tasks, Opts, C.Batch, true);
    Traced.push_back(R.WallSeconds);
    if (Traced.size() == 1 || R.WallSeconds < Rep.WallSeconds)
      Rep = std::move(R);
  } while (since(Phase) < A.Seconds);

  // The replay must reproduce the engine's verdicts and, for every
  // query the engine proved, the fuel the replay spent on its key.
  std::unordered_map<std::string, uint64_t> FuelByKey;
  for (const QueryOutcome &O : Rep.Outcomes)
    if (O.Proved)
      FuelByKey.emplace(O.Key, O.Fuel);
  uint64_t IdentityFailures = 0, EngineProves = 0;
  // Keys proved per batch: a key proved twice within one batch (one
  // engine) is a redundant prove.
  std::set<std::pair<size_t, std::string>> DistinctProved;
  for (size_t I = 0; I != N; ++I) {
    const QueryOutcome &O = Rep.Outcomes[I];
    const engine::QueryResult &R = Rs[I];
    Check.check(I, O.ParseError, O.V);
    bool Same = O.ParseError == (R.Status != engine::QueryStatus::Ok) &&
                O.V == R.V && O.Presolved == R.Presolved;
    if (R.Status == engine::QueryStatus::Ok && !R.Presolved && !R.FromCache) {
      ++EngineProves;
      DistinctProved.emplace(I / C.Batch, O.Key);
      auto It = FuelByKey.find(O.Key);
      Same &= It != FuelByKey.end() && It->second == R.FuelUsed;
    }
    if (!Same && IdentityFailures++ < 5)
      std::fprintf(stderr,
                   "IDENTITY query %zu: engine %s fuel %llu, replay %s "
                   "fuel %llu\n",
                   I, R.verdictText(),
                   static_cast<unsigned long long>(R.FuelUsed),
                   core::verdictName(O.V),
                   static_cast<unsigned long long>(O.Fuel));
  }

  // Per-layer self time: call spans have no children; a query span's
  // self time is what its calls do not cover.
  double LayerUs[NumLayers] = {};
  for (const Span &S : Rep.Spans) {
    double Us = (S.EndNs - S.StartNs) / 1e3;
    LayerUs[static_cast<unsigned>(S.L)] += Us;
    if (S.L != Layer::Query)
      LayerUs[static_cast<unsigned>(Layer::Query)] -= Us;
  }
  auto Us = [&](Layer L) { return LayerUs[static_cast<unsigned>(L)]; };
  const double WallUs = Rep.WallSeconds * 1e6;
  const double CacheUs = Us(Layer::CacheLookup) + Us(Layer::CacheInsert);
  const double RebuildUs = Us(Layer::SessionReset) + Us(Layer::Rebuild);
  std::fprintf(stderr, "%s seed %llu: replay of %zu queries, %.3f s traced "
               "wall; self time by layer:\n",
               std::string(W.Name).c_str(),
               static_cast<unsigned long long>(A.Seed), N, Rep.WallSeconds);
  for (unsigned L = 0; L != NumLayers; ++L)
    std::fprintf(stderr, "  %-22s %10.3f ms %8.2f us/query %6.1f%%\n",
                 layerName(static_cast<Layer>(L)), LayerUs[L] / 1e3,
                 LayerUs[L] / N, 100 * ratio(LayerUs[L], WallUs));

  size_t Presolved = 0;
  for (const QueryOutcome &O : Rep.Outcomes)
    Presolved += O.Presolved;
  const ProveCounters &PC = Rep.Counters;
  std::vector<double> ProveUs;
  for (const Span &S : Rep.Spans)
    if (S.L == Layer::Prove)
      ProveUs.push_back((S.EndNs - S.StartNs) / 1e3);
  const double Proves = static_cast<double>(ProveUs.size());
  const double WorkerSeconds = Stats.ParseSeconds + Stats.PresolveSeconds +
                               Stats.ProveSeconds + Stats.CacheSeconds;

  std::fprintf(stderr, "corpus: gen %.4f s, symexec %.4f s\n", C.GenSeconds,
               C.SymexecSeconds);
  Report R;
  R.metric("setup.gen_s", C.GenSeconds + C.SymexecSeconds, "s");
  R.metric("setup.engine_s", EngineSetup, "s");
  R.metric("sl.parse_us", Us(Layer::Parse) / N, "us");
  R.metric("sl.parse_share", ratio(Us(Layer::Parse), WallUs), "ratio");
  R.metric("analysis.analyze_share", ratio(Us(Layer::Analyze), WallUs),
           "ratio");
  R.metric("analysis.decided_frac", ratio(Presolved, N), "ratio");
  R.metric("engine.canon_us", Us(Layer::Canon) / N, "us");
  R.metric("engine.canon_share", ratio(Us(Layer::Canon), WallUs), "ratio");
  R.metric("engine.cache_share", ratio(CacheUs, WallUs), "ratio");
  R.metric("engine.rebuild_us", RebuildUs / N, "us");
  R.metric("engine.rebuild_share", ratio(RebuildUs, WallUs), "ratio");
  R.metric("engine.cache_hit_frac", Stats.hitRate(), "ratio");
  R.metric("engine.redundant_proves",
           static_cast<double>(EngineProves - DistinctProved.size()),
           "count");
  R.metric("engine.steals", static_cast<double>(Stats.Steals), "count");
  R.metric("engine.steal_attempts", static_cast<double>(Stats.StealAttempts),
           "count");
  R.metric("engine.worker_busy_frac",
           ratio(WorkerSeconds, Stats.WorkersUsed * Stats.Seconds), "ratio");
  R.metric("core.prove_us.p50", quantile(ProveUs, 0.5), "us");
  R.metric("core.prove_us.p99", quantile(ProveUs, 0.99), "us");
  R.metric("core.prove_us.total", Us(Layer::Prove), "us");
  R.metric("core.prove_share", ratio(Us(Layer::Prove), WallUs), "ratio");
  R.metric("core.outer_iterations", static_cast<double>(PC.Outer), "count");
  R.metric("core.inner_iterations", static_cast<double>(PC.Inner), "count");
  R.metric("core.fuel_per_query", ratio(PC.Fuel, Proves), "fuel");
  R.metric("sat.derived", static_cast<double>(PC.Derived), "count");
  R.metric("sat.kept_frac", ratio(PC.Kept, PC.Derived), "ratio");
  R.metric("sat.sub_checks", static_cast<double>(PC.SubChecks), "count");
  R.metric("sat.sub_hit_frac", ratio(PC.SubDeleted, PC.SubChecks), "ratio");
  R.metric("sat.sub_checks_per_fuel", ratio(PC.SubChecks, PC.Fuel),
           "checks/fuel");
  R.metric("sat.index_pruning", ratio(PC.SubScanBaseline, PC.SubChecks),
           "ratio");
  R.metric("sat.demodulated", static_cast<double>(PC.Demodulated), "count");
  R.metric("sat.order_memo_hit_frac",
           ratio(PC.OrderHits, PC.OrderHits + PC.OrderMisses), "ratio");
  R.metric("sat.model_attempts", static_cast<double>(PC.ModelAttempts),
           "count");
  R.metric("sat.nf_cache_reuse", static_cast<double>(PC.NfCacheReuse),
           "count");
  R.metric("sat.pool_equations", static_cast<double>(PC.PoolEquationsMax),
           "count");
  R.metric("obs.trace_overhead_frac", minOf(Traced) / minOf(Untraced) - 1,
           "ratio");

  if (!A.TraceOut.empty() && !writeChromeTrace(A.TraceOut, Rep.Spans)) {
    std::fprintf(stderr, "error: cannot write %s\n", A.TraceOut.c_str());
    return 1;
  }
  if (!A.MetricsOut.empty() && !obs::writeMetricsJson(A.MetricsOut)) {
    std::fprintf(stderr, "error: cannot write %s\n", A.MetricsOut.c_str());
    return 1;
  }
  if (IdentityFailures)
    std::fprintf(stderr, "replay/engine identity: %llu queries differ\n",
                 static_cast<unsigned long long>(IdentityFailures));
  return R.print(Check.Attempted + N, Check.Failed + IdentityFailures);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  const Workload *W = findWorkload(A.Workload);
  if (!W)
    usage();
  if (A.Mode == "reference")
    return runReference(A, *W);
  if (A.Mode == "measure")
    return runMeasure(A, *W);
  if (A.Mode == "trace")
    return runTrace(A, *W);
  usage();
}
