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
#include <cassert>

using namespace slp;
using namespace slp::engine;

namespace {

/// Cached references to the per-phase latency histograms (registry
/// histograms never move, so one lookup serves the process).
struct EngineMetrics {
  obs::Histogram &Parse;
  obs::Histogram &Presolve;
  obs::Histogram &Canon;
  obs::Histogram &CacheNs;
  obs::Histogram &Prove;
};

EngineMetrics &engineMetrics() {
  static EngineMetrics M{
      obs::metrics().histogram("engine.phase.parse_ns"),
      obs::metrics().histogram("engine.phase.presolve_ns"),
      obs::metrics().histogram("engine.phase.canon_ns"),
      obs::metrics().histogram("engine.phase.cache_ns"),
      obs::metrics().histogram("engine.phase.prove_ns")};
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

void BatchStats::record(const QueryResult &R) {
  ++Queries;
  if (R.Status == QueryStatus::ParseError) {
    ++ParseErrors;
    return;
  }
  PresolvedValid += R.Presolved;
  Sat += R.Sat;
  switch (R.V) {
  case core::Verdict::Valid:
    ++Valid;
    break;
  case core::Verdict::Invalid:
    ++Invalid;
    break;
  case core::Verdict::Unknown:
    ++Unknown;
    break;
  }
}

BatchStats &BatchStats::operator+=(const BatchStats &O) {
  for (const BatchCounter &C : BatchCounters)
    this->*C.Field += O.*C.Field;
  for (double BatchStats::*Field : BatchSeconds)
    this->*Field += O.*Field;
  Sat += O.Sat;
  if (Backends.empty()) {
    Backends = O.Backends;
    return *this;
  }
  assert(O.Backends.size() == Backends.size() &&
         "merged runs must tally the same backends");
  for (size_t I = 0; I != Backends.size(); ++I)
    Backends[I] += O.Backends[I];
  return *this;
}

BatchProver::Worker::Worker(const BatchOptions &Opts)
    : Session(Opts.Prover) {
  if (Opts.Backend != BackendKind::Portfolio)
    Stats.Backends.push_back({backendKindName(Opts.Backend)});
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
    ScopedTimer ST(EM.Parse, &W.Stats.ParseSeconds);
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
    ScopedTimer ST(EM.Presolve, &W.Stats.PresolveSeconds);
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
    ++W.Stats.PresolveMisses;
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
      W.Stats.CacheSeconds += Work;
      W.Stats.CacheWaitSeconds += Waited;
      Span.arg("hit", static_cast<uint64_t>(Hit.has_value()));
    }
    ++(Hit ? W.Stats.CacheHits : W.Stats.CacheMisses);
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
    ScopedTimer ST(EM.Prove, &W.Stats.ProveSeconds);
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
        Out.Backend = W.Stats.Backends[0].Name;
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
    bool Definitive = Out.V != core::Verdict::Unknown;
    W.Stats.Backends[0].record(Definitive, Definitive, /*GaveUp=*/false,
                               ProveTime, Out.FuelUsed);
  }

  if (Claim.held()) {
    obs::TraceSpan Span("cache-insert");
    ScopedTimer ST(EM.CacheNs, &W.Stats.CacheSeconds);
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
  StealPool Queue(Tasks.size(), N);
  std::vector<std::unique_ptr<Worker>> Workers(N);
  auto Drain = [this, &Queue, &Tasks, &Results, &Workers](unsigned J) {
    Workers[J] = std::make_unique<Worker>(Opts);
    Worker &W = *Workers[J];
    size_t I;
    while (Queue.pop(J, I)) {
      Results[I] = proveOne(Tasks[I], W);
      W.Stats.record(Results[I]);
    }
  };
  {
    // The scope joins the helpers before their workers are retired.
    std::vector<std::jthread> Threads;
    Threads.reserve(N - 1);
    for (unsigned J = 1; J != N; ++J)
      Threads.emplace_back(Drain, J);
    Drain(0);
  }

  for (const std::unique_ptr<Worker> &W : Workers) {
    W->Stats.Sessions = 1;
    W->Stats.SessionResets = W->Session.stats().Resets;
    // The last query's terms are never rewound; counting them keeps the
    // total independent of which worker proved which query last.
    W->Stats.TermsReclaimed =
        W->Session.stats().TermsReclaimed + W->Session.localSymbols();
    if (W->Portfolio)
      W->Stats.Backends = W->Portfolio->tallies();
    Stats += W->Stats;
  }
  StealStats Stealing = Queue.totals();
  Stats.Seconds = T.seconds();
  Stats.WorkersUsed = N;
  Stats.Steals = Stealing.Steals;
  Stats.StealAttempts = Stealing.StealAttempts;
  // Only a claimed key is published, so a run without a miss left the
  // cache as the last run did; skipping the read keeps the shard locks
  // off presolved and all-hit runs.
  if (Stats.CacheMisses) {
    const CacheStats Now = Cache.stats();
    Stats.CacheInsertions = Now.Insertions - CacheSeen.Insertions;
    Stats.CacheEvictions = Now.Evictions - CacheSeen.Evictions;
    CacheSeen = Now;
  }
  Stats.CacheEntries = CacheSeen.Entries;

  // Mirror the run into the global metrics registry: monotone counters
  // accumulated over every run() of the process, the payload behind
  // --metrics-json. BatchStats stays the per-run account that --stats
  // prints.
  obs::MetricsRegistry &Reg = obs::metrics();
  Stats.forEachMirrored([&](std::string_view Name, uint64_t V, Mirror How) {
    switch (How) {
    case Mirror::Presolve:
      if (!Opts.Presolve)
        break;
      [[fallthrough]];
    case Mirror::Counter:
      Reg.add(Name, V);
      break;
    case Mirror::Gauge:
      Reg.set(Name, static_cast<int64_t>(V));
      break;
    }
  });
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
