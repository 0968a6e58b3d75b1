//===- engine/Portfolio.cpp - Racing backend portfolio ------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "engine/Portfolio.h"

#include "baselines/Backends.h"
#include "obs/Trace.h"
#include "support/Timer.h"

#include <cassert>
#include <thread>

using namespace slp;
using namespace slp::engine;

const char *engine::backendKindName(BackendKind K) {
  switch (K) {
  case BackendKind::Slp:
    return "slp";
  case BackendKind::Berdine:
    return "berdine";
  case BackendKind::Unfolding:
    return "unfolding";
  case BackendKind::Portfolio:
    return "portfolio";
  }
  return "?";
}

std::optional<BackendKind> engine::parseBackendKind(std::string_view Name) {
  if (Name == "slp")
    return BackendKind::Slp;
  if (Name == "berdine")
    return BackendKind::Berdine;
  if (Name == "unfolding" || Name == "greedy")
    return BackendKind::Unfolding;
  if (Name == "portfolio")
    return BackendKind::Portfolio;
  return std::nullopt;
}

std::unique_ptr<core::EntailmentBackend>
engine::makeBackend(BackendKind K, const core::ProverOptions &Opts) {
  switch (K) {
  case BackendKind::Slp:
    return std::make_unique<core::SlpBackend>(Opts);
  case BackendKind::Berdine:
    return std::make_unique<baselines::BerdineBackend>();
  case BackendKind::Unfolding:
    return std::make_unique<baselines::UnfoldingBackend>();
  case BackendKind::Portfolio: {
    PortfolioOptions PO;
    PO.Prover = Opts;
    return std::make_unique<PortfolioProver>(std::move(PO));
  }
  }
  return nullptr;
}

PortfolioProver::PortfolioProver(PortfolioOptions O) : Opts(std::move(O)) {
  assert(!Opts.Backends.empty() && "portfolio needs at least one member");
  for (BackendKind K : Opts.Backends) {
    assert(K != BackendKind::Portfolio && "portfolios do not nest");
    Members.push_back(makeBackend(K, Opts.Prover));
    Tallies.push_back(BackendTally{Members.back()->name()});
    RaceSpanNames.push_back(std::string("race:") + Members.back()->name());
  }
  Slots.resize(Members.size());

  // Persistent worker threads for members 1..N-1; member 0 always
  // runs on the prove() caller's thread. Workers sleep between races,
  // so a portfolio over a corpus of tiny queries pays the thread
  // creation once, not twice per task.
  for (size_t I = 1; I < Members.size(); ++I)
    Workers.emplace_back([this, I] {
      uint64_t Seen = 0;
      for (;;) {
        {
          std::unique_lock<std::mutex> L(M);
          StartCV.wait(L, [&] { return Stopping || Generation != Seen; });
          if (Stopping)
            return;
          Seen = Generation;
        }
        runMember(I);
        {
          std::lock_guard<std::mutex> L(M);
          --Pending;
        }
        DoneCV.notify_all();
      }
    });
}

PortfolioProver::~PortfolioProver() {
  {
    std::lock_guard<std::mutex> L(M);
    Stopping = true;
  }
  StartCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

std::vector<BackendTally> PortfolioProver::takeTallies() {
  std::vector<BackendTally> Out = Tallies;
  for (BackendTally &T : Tallies)
    T = BackendTally{std::move(T.Name)};
  return Out;
}

bool PortfolioProver::complete() const {
  for (const auto &Member : Members)
    if (Member->complete())
      return true;
  return false;
}

void PortfolioProver::runMember(size_t I) {
  // Span names are precomputed so the disabled path allocates nothing.
  obs::TraceSpan Span(RaceSpanNames[I].c_str());
  Timer T;
  Fuel MF = RaceBudget ? Fuel(RaceBudget, Cancel) : Fuel(Cancel);
  Slot &S = Slots[I];
  S.R = Members[I]->prove(*Task, MF);
  S.Seconds = T.seconds();
  S.FuelUsed = MF.used();
  S.Seq = Seq.fetch_add(1, std::memory_order_relaxed);
  if (S.R.definitive())
    Cancel->cancel(); // Decided: stop the losers.
  else
    S.Cancelled = MF.cancelled();
  Span.arg("seq", static_cast<uint64_t>(S.Seq));
  Span.arg("fuel", S.FuelUsed);
  Span.arg("definitive", static_cast<uint64_t>(S.R.definitive()));
  Span.arg("cancelled", static_cast<uint64_t>(S.Cancelled));
}

core::BackendResult PortfolioProver::prove(const core::ProofTask &T,
                                           Fuel &F) {
  const size_t N = Members.size();

  // One token for the whole race, chained off the caller's: the first
  // definitive verdict raises it, and an outer cancellation — pending
  // or fired mid-race — reads as cancelled through the parent link.
  // The per-member budget is the caller's remaining one, and a caller
  // budget that is already spent is a lost race, not an unlimited one.
  if (F.limited() && F.remaining() == 0)
    return core::BackendResult{}; // Unknown; nobody raced.
  CancelToken RaceCancel(F.cancelToken());
  uint64_t Budget = F.limited() ? F.remaining() : 0;
  Seq.store(0, std::memory_order_relaxed);
  for (Slot &S : Slots)
    S = Slot{};

  if (N == 1) {
    Task = &T;
    Cancel = &RaceCancel;
    RaceBudget = Budget;
    runMember(0);
  } else {
    {
      std::lock_guard<std::mutex> L(M);
      Task = &T;
      Cancel = &RaceCancel;
      RaceBudget = Budget;
      Pending = static_cast<unsigned>(N - 1);
      ++Generation;
    }
    StartCV.notify_all();
    runMember(0);
    std::unique_lock<std::mutex> L(M);
    DoneCV.wait(L, [&] { return Pending == 0; });
  }

  // Race over; the pointers into this frame must not outlive it.
  Task = nullptr;
  Cancel = nullptr;

  // The accepted verdict: first definitive finisher in race order.
  size_t Winner = N;
  for (size_t I = 0; I != N; ++I)
    if (Slots[I].R.definitive() &&
        (Winner == N || Slots[I].Seq < Slots[Winner].Seq))
      Winner = I;

  uint64_t TotalFuel = 0;
  for (size_t I = 0; I != N; ++I) {
    const Slot &S = Slots[I];
    Tallies[I].record(I == Winner, S.R.definitive(), S.Cancelled, S.Seconds,
                      S.FuelUsed);
    TotalFuel += S.FuelUsed;
  }
  // Charge the caller's budget with the whole race for accounting;
  // the race itself was bounded per member by the budget at its start.
  F.consume(TotalFuel);

  if (Winner != N) {
    core::BackendResult Out = Slots[Winner].R;
    Out.FuelUsed = TotalFuel;
    // The Berdine splitter decides invalidity without materializing a
    // heap; if another member that does build countermodels also
    // finished with Invalid (typically SLP in a photo finish), carry
    // its model so --model output degrades as rarely as possible.
    if (Out.V == core::Verdict::Invalid && Out.CexText.empty())
      for (size_t I = 0; I != N; ++I)
        if (Slots[I].R.V == core::Verdict::Invalid &&
            !Slots[I].R.CexText.empty()) {
          Out.CexText = Slots[I].R.CexText;
          break;
        }
    return Out;
  }

  // Nobody decided (timeouts everywhere, an incomplete-member miss, or
  // a parse error — the members parse the same text, so one parse
  // diagnostic stands for all). Prefer the SLP member's slot: its
  // saturation counters describe real work done.
  size_t Pick = 0;
  for (size_t I = 0; I != N; ++I)
    if (Opts.Backends[I] == BackendKind::Slp) {
      Pick = I;
      break;
    }
  core::BackendResult Out = Slots[Pick].R;
  Out.Backend.clear(); // No member vouches for an Unknown verdict.
  Out.FuelUsed = TotalFuel;
  return Out;
}
