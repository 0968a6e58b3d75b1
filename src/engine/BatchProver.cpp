//===- engine/BatchProver.cpp - Concurrent batch proving ----------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "engine/BatchProver.h"

#include "analysis/StaticAnalyzer.h"
#include "engine/StealPool.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "sl/Parser.h"
#include "support/Timer.h"

#include <algorithm>

using namespace slp;
using namespace slp::engine;

namespace {

/// Cached references to the per-phase latency histograms and the
/// queue-depth gauge (registry objects never move, so one lookup
/// serves the process).
struct EngineMetrics {
  obs::Histogram &Parse;
  obs::Histogram &Presolve;
  obs::Histogram &Canon;
  obs::Histogram &CacheNs;
  obs::Histogram &Prove;
  obs::Gauge &QueueDepth;
};

EngineMetrics &engineMetrics() {
  static EngineMetrics M{
      obs::metrics().histogram("engine.phase.parse_ns"),
      obs::metrics().histogram("engine.phase.presolve_ns"),
      obs::metrics().histogram("engine.phase.canon_ns"),
      obs::metrics().histogram("engine.phase.cache_ns"),
      obs::metrics().histogram("engine.phase.prove_ns"),
      obs::metrics().gauge("engine.queue.depth")};
  return M;
}

/// Holds the worker's ResultCache claim on a key for one prove.
/// publish() hands the verdict over; every other way out of proveOne
/// (an unparsable backend answer, an exception) abandons the claim, so
/// the key's waiters never hang.
class CacheClaim {
public:
  /// Owns \p Q's claim in \p Cache; a null \p Cache holds nothing.
  CacheClaim(ResultCache *Cache, const CanonicalQuery &Q)
      : Cache(Cache), Q(Q) {}
  CacheClaim(const CacheClaim &) = delete;
  CacheClaim &operator=(const CacheClaim &) = delete;
  ~CacheClaim() {
    if (Cache)
      Cache->abandon(Q);
  }

  bool held() const { return Cache; }

  void publish(core::Verdict V) {
    Cache->publish(Q, V);
    Cache = nullptr;
  }

private:
  ResultCache *Cache;
  const CanonicalQuery &Q;
};

} // namespace

BatchProver::BatchProver(BatchOptions Opts)
    : Opts(Opts), Cache(Opts.Cache) {}

BatchProver::Worker::Worker(const BatchOptions &Opts)
    : Session(Opts.Prover) {
  Tally.Name = backendKindName(Opts.Backend);
  // Fast path: the session itself proves; no backend object, no
  // canonical-text round trip.
  if (Opts.Backend == BackendKind::Slp)
    return;
  // The per-query Fuel handed to prove() carries the budget; a
  // portfolio derives each member's budget from it.
  Backend = makeBackend(Opts.Backend, Opts.Prover);
  if (Opts.Backend == BackendKind::Portfolio)
    Portfolio = static_cast<PortfolioProver *>(Backend.get());
}

std::vector<BackendTally> BatchProver::Worker::tallies() const {
  if (Portfolio)
    return Portfolio->tallies();
  return {Tally};
}

QueryResult BatchProver::proveOne(const ProofTask &Task, Worker &W) {
  QueryResult Out;
  EngineMetrics &EM = engineMetrics();
  obs::TraceSpan QuerySpan("query");
  if (!Task.Name.empty())
    QuerySpan.arg("name", Task.Name);

  // Parse once, straight into the worker's session table on top of the
  // baseline checkpoint. TermTable is not thread safe, but sessions
  // are worker-local; the rewind below keeps symbol ids (and thus the
  // term ordering the calculus uses) independent of scheduling
  // history.
  W.Session.reset();
  sl::ParseResult P = [&] {
    obs::TraceSpan Span("parse");
    ScopedTimer ST(EM.Parse, &W.ParseSeconds);
    return sl::parseEntailment(W.Session.terms(), Task.Text);
  }();
  if (!P.ok()) {
    Out.Status = QueryStatus::ParseError;
    Out.Error = P.Error->render();
    return Out;
  }

  // Static pre-solve: the polynomial analyzer runs on the parsed form,
  // ahead of canonicalization and the cache. It answers only Valid,
  // and soundly, so that answer is the final verdict; Unknown falls
  // through at the cost of one cheap closure pass.
  if (Opts.Presolve) {
    obs::TraceSpan Span("presolve");
    ScopedTimer ST(EM.Presolve, &W.PresolveSeconds);
    analysis::AnalysisResult A =
        analysis::analyze(W.Session.terms(), *P.Value);
    if (A.definitive()) {
      Out.V = A.V;
      Out.Presolved = true;
      Out.Backend = "presolve";
      Span.arg("verdict", std::string(core::verdictName(A.V)));
      Span.arg("reason", std::string(analysis::reasonName(A.R)));
      return Out;
    }
    ++W.PresolveMisses;
  }

  CanonicalQuery Q = [&] {
    obs::TraceSpan Span("canonicalize");
    ScopedTimer ST(EM.Canon);
    return CanonicalQuery::of(*P.Value);
  }();
  if (Opts.CacheEnabled) {
    std::optional<core::Verdict> Hit;
    {
      // The cache phase is the lookup's own work; time blocked on
      // another worker's prove of the same key is the separate
      // cache-wait phase, recorded inside acquire().
      obs::TraceSpan Span("cache-lookup");
      Timer LookupTimer;
      double Waited = 0;
      Hit = Cache.acquire(Q, &Waited);
      // The wait is nested in the lookup; the clamp only keeps rounding
      // from turning the difference negative.
      double Work = std::max(0.0, LookupTimer.seconds() - Waited);
      EM.CacheNs.record(static_cast<uint64_t>(Work * 1e9));
      W.CacheSeconds += Work;
      W.CacheWaitSeconds += Waited;
      Span.arg("hit", static_cast<uint64_t>(Hit.has_value()));
    }
    ++(Hit ? W.CacheHits : W.CacheMisses);
    if (Hit) {
      Out.V = *Hit;
      Out.FromCache = true;
      return Out;
    }
  }
  CacheClaim Claim(Opts.CacheEnabled ? &Cache : nullptr, Q);

  // Rewind the parse-local terms and re-materialize the canonical form
  // at the baseline, so the verdict is a pure function of the
  // canonical key (see the file comment in the header). The parsed
  // entailment dangles after the reset; only Q is used from here on.
  // The prove phase covers the rebuild, as before.
  W.Session.reset();
  double ProveTime = 0;
  {
    obs::TraceSpan Span("prove");
    ScopedTimer ST(EM.Prove, &W.ProveSeconds);
    Timer ProveTimer;
    sl::Entailment E = Q.rebuild(W.Session.terms());

    if (!W.Backend) {
      // Slp fast path: prove in the session directly.
      Fuel F = Opts.FuelPerQuery ? Fuel(Opts.FuelPerQuery) : Fuel();
      core::ProveResult R = W.Session.prove(E, F);
      ProveTime = ProveTimer.seconds();
      Out.V = R.V;
      Out.FuelUsed = R.Stats.FuelUsed;
      Out.Sat = R.Stats.Sat;
      if (R.V != core::Verdict::Unknown)
        Out.Backend = W.Tally.Name;
    } else {
      // Backend path: hand the canonical form to the backend as text
      // (its own tables, its own parse), so racing members never touch
      // the worker session.
      ProofTask Canon{sl::str(W.Session.terms(), E), Task.Name, Task.Group};
      Fuel F = Opts.FuelPerQuery ? Fuel(Opts.FuelPerQuery) : Fuel();
      core::BackendResult BR = W.Backend->prove(Canon, F);
      ProveTime = ProveTimer.seconds();
      if (!BR.Parsed) {
        // Cannot happen for text we rendered ourselves, but surface it
        // rather than miscount. The claim's destructor abandons the
        // key, so its waiters take it over instead of hanging.
        Out.Status = QueryStatus::ParseError;
        Out.Error = BR.Error;
        return Out;
      }
      Out.V = BR.V;
      Out.FuelUsed = BR.FuelUsed;
      // Per the header contract, Backend names a verdict's producer;
      // nobody vouches for Unknown (single backends name themselves in
      // BR.Backend unconditionally, the portfolio already clears it).
      if (BR.V != core::Verdict::Unknown)
        Out.Backend = BR.Backend;
      Out.Sat = BR.Stats.Sat;
    }
    Span.arg("verdict", std::string(Out.verdictText()));
    if (!Out.Backend.empty())
      Span.arg("backend", Out.Backend);
    Span.arg("fuel", Out.FuelUsed);
    if (Out.Sat.ModelAttempts) {
      Span.arg("model_attempts", Out.Sat.ModelAttempts);
      Span.arg("gen_replayed_from", Out.Sat.GenReplayedFrom);
      Span.arg("cert_skipped", Out.Sat.CertSkipped);
      Span.arg("nf_cache_reuse", Out.Sat.NfCacheReuse);
    }
  }

  // Single-backend accounting (the portfolio keeps its own tallies).
  if (!W.Portfolio) {
    ++W.Tally.Races;
    bool Definitive = Out.V != core::Verdict::Unknown;
    W.Tally.Wins += Definitive;
    W.Tally.Definitive += Definitive;
    W.Tally.Seconds += ProveTime;
    W.Tally.FuelUsed += Out.FuelUsed;
  }

  if (Claim.held()) {
    obs::TraceSpan Span("cache-insert");
    ScopedTimer ST(EM.CacheNs, &W.CacheSeconds);
    Claim.publish(Out.V);
  }
  return Out;
}

std::vector<QueryResult>
BatchProver::run(const std::vector<ProofTask> &Tasks) {
  std::vector<QueryResult> Results(Tasks.size());
  Timer T;
  Stats = BatchStats();

  // One worker loop for every job count: the calling thread is worker
  // 0 and N - 1 scoped threads run the rest, so a one-task batch (or
  // Jobs == 1) proves on the caller with no thread spawned.
  const unsigned N = Tasks.size() <= 1 ? 1 : resolveJobs(Opts.Jobs);
  StealPool Queue(Tasks.size(), N, &engineMetrics().QueueDepth, Opts.Cancel);
  std::vector<std::unique_ptr<Worker>> Workers(N);
  auto Drain = [this, &Queue, &Tasks, &Results, &Workers](unsigned J) {
    Workers[J] = std::make_unique<Worker>(Opts);
    size_t I;
    while (Queue.pop(J, I))
      Results[I] = proveOne(Tasks[I], *Workers[J]);
  };
  {
    // The scope joins the helpers before their workers are retired.
    std::vector<std::jthread> Threads;
    Threads.reserve(N - 1);
    for (unsigned J = 1; J != N; ++J)
      Threads.emplace_back(Drain, J);
    Drain(0);
  }

  std::vector<std::vector<BackendTally>> WorkerTallies;
  uint64_t PresolveMisses = 0;
  for (const std::unique_ptr<Worker> &W : Workers) {
    const core::SessionStats &SS = W->Session.stats();
    ++Stats.Sessions;
    Stats.SessionResets += SS.Resets;
    Stats.TermsReclaimed += SS.TermsReclaimed;
    WorkerTallies.push_back(W->tallies());
    Stats.ParseSeconds += W->ParseSeconds;
    Stats.PresolveSeconds += W->PresolveSeconds;
    Stats.ProveSeconds += W->ProveSeconds;
    Stats.CacheSeconds += W->CacheSeconds;
    Stats.CacheWaitSeconds += W->CacheWaitSeconds;
    Stats.CacheHits += W->CacheHits;
    Stats.CacheMisses += W->CacheMisses;
    PresolveMisses += W->PresolveMisses;
  }
  StealStats Stealing = Queue.totals();

  Stats.Seconds = T.seconds();
  Stats.Queries = Tasks.size();
  Stats.WorkersUsed = N;
  Stats.Steals = Stealing.Steals;
  Stats.StealAttempts = Stealing.StealAttempts;
  // Merge per-backend tallies across workers, preserving member order.
  for (const std::vector<BackendTally> &WT : WorkerTallies)
    for (const BackendTally &BT : WT) {
      BackendTally *Into = nullptr;
      for (BackendTally &Existing : Stats.Backends)
        if (Existing.Name == BT.Name)
          Into = &Existing;
      if (!Into) {
        Stats.Backends.push_back(BackendTally{BT.Name, 0, 0, 0, 0, 0, 0});
        Into = &Stats.Backends.back();
      }
      Into->Races += BT.Races;
      Into->Wins += BT.Wins;
      Into->Definitive += BT.Definitive;
      Into->Cancelled += BT.Cancelled;
      Into->Seconds += BT.Seconds;
      Into->FuelUsed += BT.FuelUsed;
    }
  for (const QueryResult &R : Results) {
    if (R.Status == QueryStatus::ParseError) {
      ++Stats.ParseErrors;
      continue;
    }
    Stats.PresolvedValid += R.Presolved;
    Stats.Sat += R.Sat;
    switch (R.V) {
    case core::Verdict::Valid:
      ++Stats.Valid;
      break;
    case core::Verdict::Invalid:
      ++Stats.Invalid;
      break;
    case core::Verdict::Unknown:
      ++Stats.Unknown;
      break;
    }
  }

  // Mirror the run's aggregates into the global metrics registry —
  // monotone counters accumulated over every run() of the process, the
  // payload behind --metrics-json and the snapshot-based --stats
  // printers. BatchStats above stays the per-run source of truth.
  obs::MetricsRegistry &Reg = obs::metrics();
  Reg.counter("engine.queries").inc(Stats.Queries);
  Reg.counter("engine.parse_errors").inc(Stats.ParseErrors);
  Reg.counter("engine.valid").inc(Stats.Valid);
  Reg.counter("engine.invalid").inc(Stats.Invalid);
  Reg.counter("engine.unknown").inc(Stats.Unknown);
  if (Opts.Presolve) {
    Reg.counter("analysis.presolved.valid").inc(Stats.PresolvedValid);
    Reg.counter("analysis.presolved.miss").inc(PresolveMisses);
  }
  Reg.gauge("engine.sessions").set(static_cast<int64_t>(Stats.Sessions));
  Reg.counter("session.resets").inc(Stats.SessionResets);
  Reg.counter("session.terms_reclaimed").inc(Stats.TermsReclaimed);
  Stats.Sat.forEach(
      [&Reg](const char *Name, uint64_t V) { Reg.counter(Name).inc(V); });
  Reg.gauge("engine.workers").set(static_cast<int64_t>(Stats.WorkersUsed));
  Reg.counter("engine.steal.steals").inc(Stats.Steals);
  Reg.counter("engine.steal.attempts").inc(Stats.StealAttempts);
  publishBackendTallies(Stats.Backends);

  return Results;
}

std::vector<QueryResult>
BatchProver::run(const std::vector<std::string> &Queries) {
  std::vector<ProofTask> Tasks;
  Tasks.reserve(Queries.size());
  for (const std::string &Q : Queries)
    Tasks.push_back({Q, /*Name=*/"", /*Group=*/0});
  return run(Tasks);
}

std::vector<std::string>
BatchProver::splitCorpus(std::string_view Text,
                         std::vector<unsigned> *LineNos) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  unsigned LineNo = 0;
  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    size_t NonWs = Line.find_first_not_of(" \t\r");
    if (NonWs == std::string_view::npos)
      continue;
    std::string_view Body = Line.substr(NonWs);
    if (Body[0] == '#' || Body.rfind("//", 0) == 0)
      continue;
    Lines.emplace_back(Line);
    if (LineNos)
      LineNos->push_back(LineNo);
    if (End == Text.size())
      break;
  }
  return Lines;
}
