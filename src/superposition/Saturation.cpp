//===- superposition/Saturation.cpp - Given-clause saturation -------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "superposition/Saturation.h"

#include "obs/Trace.h"
#include "support/Invariants.h"

#include <algorithm>
#include <compare>
#include <functional>

using namespace slp;
using namespace slp::sup;

//===----------------------------------------------------------------------===//
// Clause intake
//===----------------------------------------------------------------------===//

void Saturation::clear() {
  DB.clear();
  FpHeads.assign(InitialFingerprintBuckets, ~0u);
  FpNext.clear();
  FpEntries = 0;
  Active.clear();
  Passive = {};
  EmptyClauseId.reset();
  Demod.clear();
  SigById.clear();
  Live.clear();
  LiveSlot.clear();
  LitPool.clear();
  LitRefs.clear();
  ++OrderMemoEpoch; // O(1) memo invalidation.
  // Empty the partner lists but keep them, and their capacity.
  for (std::vector<uint32_t> &Ids : FromByMax)
    Ids.clear();
  for (std::vector<uint32_t> &Ids : IntoByMax)
    Ids.clear();
  StaleDeleted = 0;
  OrderedLive.clear();
  LiveWatermark = ~size_t(0);
  ModelSnapshotValid = false;
  PrevLiveSize = 0;
  RulesAfter.clear();
  IncModel.clear();
  PrevRules.clear();
  CertEpoch = 1;
  SatOkEpoch.clear();
  ResidualOkEpoch.clear();
  Stats = SaturationStats();
}

Saturation::AddResult Saturation::addInput(std::vector<Equation> Neg,
                                           std::vector<Equation> Pos,
                                           uint32_t ExternalTag) {
  NegScratch.assign(Neg.begin(), Neg.end());
  PosScratch.assign(Pos.begin(), Pos.end());
  canonicalizeSide(NegScratch);
  canonicalizeSide(PosScratch);
  return intake(RuleKind::Input, {}, ExternalTag);
}

Saturation::AddResult Saturation::intake(RuleKind Kind,
                                         std::span<const uint32_t> Parents,
                                         uint32_t ExternalTag) {
  const bool Conclusion = Kind != RuleKind::Input;
  if (Conclusion)
    ++Stats.Derived;
  // Test before hashing: most conclusions are tautologies. superpose()
  // has already decided this for its conclusions, unmerged.
  if (Kind == RuleKind::SupLeft || Kind == RuleKind::SupRight) {
    SLP_INVARIANT(!ClauseView(NegScratch, PosScratch, 0).isTautology(),
                  "superpose() let a tautology through");
  } else if (ClauseView(NegScratch, PosScratch, 0).isTautology()) {
    ++Stats.Tautologies;
    return {~0u, false};
  }
  // A view of the scratch, not of the pool: it stays valid while the
  // clause is appended below. One pass hashes and signs it.
  uint64_t Fingerprint = 0;
  const ClauseSig Sig = ClauseSig::of(NegScratch, PosScratch, Fingerprint);
  const ClauseView C(NegScratch, PosScratch, Fingerprint);

  DupOutcome Dup = handleDuplicate(C);
  if (Dup.State != DupOutcome::NoDup) {
    const bool Revived = Dup.State == DupOutcome::Revived;
    if (Conclusion && Revived)
      ++Stats.Kept;
    return {Dup.Id, Revived};
  }

  if (isForwardSubsumed(C, Sig)) {
    ++Stats.SubsumedFwd;
    return {~0u, false};
  }

  Justification J;
  J.Kind = Kind;
  J.Parents.assign(Parents.begin(), Parents.end());
  J.ExternalTag = ExternalTag;
  const uint32_t Id = DB.append(C, std::move(J));
  linkFingerprint(Id);
  Stats.PoolEquations = DB.poolEquations();
  registerClause(Id, Sig);
  Passive.push({static_cast<uint32_t>(C.size()), Id});
  if (Conclusion)
    ++Stats.Kept;
  if (C.empty() && !EmptyClauseId)
    EmptyClauseId = Id;
  else
    backwardSubsume(Id);
  return {Id, true};
}

Saturation::DupOutcome Saturation::handleDuplicate(ClauseView C) {
  // A live duplicate is not new; a *deleted* duplicate must be
  // revived — its deletion was justified by clauses that may since
  // have been deleted themselves (simplification chains can be
  // circular), so dropping it could silently lose the fact. Revival
  // must re-check forward subsumption first: if a *live* clause
  // subsumes the duplicate, its deletion is still justified and
  // resurrecting it would undo redundancy elimination.
  const uint64_t Hash = C.fingerprint();
  for (uint32_t DupId = FpHeads[fingerprintBucket(Hash)]; DupId != ~0u;
       DupId = FpNext[DupId]) {
    if (DB.fingerprint(DupId) != Hash || DB.view(DupId) != C)
      continue;
    if (!DB.deleted(DupId))
      return {DupOutcome::LiveDup, DupId};
    if (isForwardSubsumed(C, SigById[DupId], DupId)) {
      ++Stats.SubsumedFwd;
      return {DupOutcome::StillSubsumed, DupId};
    }
    DB.setDeleted(DupId, false);
    if (StaleDeleted)
      --StaleDeleted;
    registerClause(DupId, SigById[DupId]);
    Passive.push({DB.litCount(DupId), DupId});
    backwardSubsume(DupId);
    return {DupOutcome::Revived, DupId};
  }
  return {DupOutcome::NoDup, ~0u};
}

void Saturation::linkFingerprint(uint32_t Id) {
  assert(FpNext.size() == Id && "clauses are linked in append order");
  if (++FpEntries > FpHeads.size())
    growFingerprints();
  uint32_t &Head = FpHeads[fingerprintBucket(DB.fingerprint(Id))];
  FpNext.push_back(Head);
  Head = Id;
}

void Saturation::growFingerprints() {
  // A bucket is the top bits of the scrambled hash, so doubling splits
  // bucket B into 2B and 2B+1. Splitting from the top down, every
  // write lands above the buckets still to be read (or on B itself,
  // already read), so the heads are relinked in place.
  const size_t N = FpHeads.size();
  FpHeads.resize(2 * N, ~0u);
  for (size_t B = N; B-- != 0;) {
    uint32_t Id = FpHeads[B];
    FpHeads[2 * B] = FpHeads[2 * B + 1] = ~0u;
    while (Id != ~0u) {
      const uint32_t Next = FpNext[Id];
      uint32_t &Head = FpHeads[fingerprintBucket(DB.fingerprint(Id))];
      FpNext[Id] = Head;
      Head = Id;
      Id = Next;
    }
  }
}

void Saturation::registerClause(uint32_t Id, const ClauseSig &Sig) {
  if (SigById.size() <= Id) {
    SigById.resize(Id + 1);
    LiveSlot.resize(Id + 1, ~0u);
  }
  SigById[Id] = Sig; // A self-assignment on revival.
  LiveSlot[Id] = static_cast<uint32_t>(Live.push(Id, Sig));
  if (Opts.IncrementalModel)
    orderedLiveInsert(Id);
}

bool Saturation::isForwardSubsumed(ClauseView C, const ClauseSig &Sig,
                                   uint32_t ExcludeId) {
  if (!Opts.Subsumption)
    return false;
  ++Stats.SubQueries;
  // Every live clause except the excluded one (when it is live, e.g.
  // the given-clause re-check) is a candidate.
  Stats.SubScanBaseline +=
      Live.size() - (ExcludeId != ~0u && !DB.deleted(ExcludeId) ? 1 : 0);
  return Live.findSubsumer(Sig.Neg, Sig.Pos, [&](uint32_t DId) {
    if (DId == ExcludeId)
      return false;
    ++Stats.SubChecks;
    return DB.view(DId).subsumes(C);
  });
}

void Saturation::backwardSubsume(uint32_t NewId) {
  if (!Opts.Subsumption)
    return;
  // View, not copy: nothing below appends to the DB (deleteClause only
  // flips flags), so the spans stay valid for the whole sweep.
  ClauseView C = DB.view(NewId);
  const ClauseSig &Sig = SigById[NewId];
  ++Stats.SubQueries;
  // NewId itself is live and registered by now; the scan skips it.
  Stats.SubScanBaseline += Live.size() - 1;
  // deleteClause swap-removes from Live: a deletion moves the last
  // clause into the visited slot, which the scan then visits next.
  Live.forEachSubsumed(Sig.Neg, Sig.Pos, [&](uint32_t DId) {
    if (DId == NewId)
      return false;
    ++Stats.SubChecks;
    if (!C.subsumes(DB.view(DId)))
      return false;
    deleteClause(DId);
    ++Stats.SubsumedBwd;
    return true;
  });
}

//===----------------------------------------------------------------------===//
// Demodulation
//===----------------------------------------------------------------------===//

void Saturation::maybeAddDemodulator(uint32_t Id) {
  if (!Opts.Demodulation)
    return;
  ClauseView C = DB.view(Id);
  if (!C.neg().empty() || C.pos().size() != 1)
    return;
  const Equation E = C.pos().front(); // Copy: intake below grows the
                                      // equation pool.
  if (E.trivial())
    return;
  // The larger side is the left-hand side of the rule.
  const Symbol L = E.rhs(), R = E.lhs();
  if (Demod.reducibleAtRoot(L))
    return; // Keep the system left-reduced; superposition joins them.
  Demod.addRule(L, R, Id);

  // Backward demodulation: rewrite active clauses reducible by the new
  // unit and send the results back through the queue. Every active
  // clause was normal when it was given, and every later rule has
  // rewritten the active clauses it reaches, so only L can fire: a
  // clause that does not mention L is skipped unwalked.
  auto MentionsL = [L](const Equation &E) { return E.mentions(L); };
  for (uint32_t ActId : Active) {
    if (ActId == Id || DB.deleted(ActId))
      continue;
    const ClauseView A = DB.view(ActId);
    if (std::none_of(A.neg().begin(), A.neg().end(), MentionsL) &&
        std::none_of(A.pos().begin(), A.pos().end(), MentionsL)) {
      SLP_INVARIANT(!demodClause(A, ActId),
                    "an active clause is reducible by an older rule");
      continue;
    }
    if (!demodClause(A, ActId))
      continue;
    deleteClause(ActId);
    ++Stats.Demodulated;
    intake(RuleKind::Demod, ParentScratch);
  }
}

Symbol Saturation::demodTerm(Symbol T, uint32_t SelfId,
                             std::vector<uint32_t> &Used) {
  Symbol Current = T;
  for (;;) {
    const RewriteRule *Rule = Demod.ruleFor(Current);
    if (!Rule || Rule->GeneratingClause == SelfId)
      return Current;
    Used.push_back(Rule->GeneratingClause);
    Current = Rule->Rhs;
  }
}

bool Saturation::demodClause(ClauseView C, uint32_t SelfId) {
  if (Demod.empty())
    return false;
  ParentScratch.assign(1, SelfId);
  bool Changed = false;
  auto Rewrite = [&](std::span<const Equation> Side,
                     std::vector<Equation> &Out) {
    Out.clear();
    for (const Equation &E : Side) {
      Symbol L = demodTerm(E.lhs(), SelfId, ParentScratch);
      Symbol R = demodTerm(E.rhs(), SelfId, ParentScratch);
      Changed |= (L != E.lhs() || R != E.rhs());
      Out.emplace_back(L, R);
    }
  };
  Rewrite(C.neg(), NegScratch);
  Rewrite(C.pos(), PosScratch);
  if (!Changed)
    return false;
  // Rewritten equations are neither sorted nor distinct any more.
  canonicalizeSide(NegScratch);
  canonicalizeSide(PosScratch);
  auto Used = ParentScratch.begin() + 1;
  std::sort(Used, ParentScratch.end());
  ParentScratch.erase(std::unique(Used, ParentScratch.end()),
                      ParentScratch.end());
  return true;
}

void Saturation::deleteClause(uint32_t Id) {
  if (DB.deleted(Id))
    return;
  DB.setDeleted(Id, true);
  ++StaleDeleted;
  // Swap-remove from Live.
  const uint32_t Slot = LiveSlot[Id];
  SLP_INVARIANT(Slot < Live.size() && Live.id(Slot) == Id,
                "live-clause slot map out of sync");
  LiveSlot[Live.swapRemove(Slot)] = Slot;
  LiveSlot[Id] = ~0u;
  if (Opts.IncrementalModel)
    orderedLiveErase(Id);
  // Retire the rule this clause owns: only a positive unit can, and
  // its rule's left-hand side is the equation's larger side.
  const ClauseView C = DB.view(Id);
  if (!C.neg().empty() || C.pos().size() != 1)
    return;
  const Symbol L = C.pos().front().rhs();
  if (const RewriteRule *Rule = Demod.ruleFor(L);
      Rule && Rule->GeneratingClause == Id)
    Demod.removeRuleFor(L);
}

//===----------------------------------------------------------------------===//
// Index compaction
//===----------------------------------------------------------------------===//

void Saturation::maybeCompactIndexes() {
  // Amortized: sweep only once the stale entries rival the live set,
  // so total sweep work stays linear in total deletions. The floor
  // keeps small queries (the common case) from ever sweeping.
  if (StaleDeleted >= 64 && StaleDeleted >= Live.size())
    compactIndexes();
}

void Saturation::compactIndexes() {
  ++Stats.Compactions;
  uint64_t Purged = 0;

  for (uint32_t &Head : FpHeads)
    for (uint32_t *Link = &Head; *Link != ~0u;) {
      if (DB.deleted(*Link)) {
        *Link = FpNext[*Link];
        --FpEntries;
        ++Purged;
      } else {
        Link = &FpNext[*Link];
      }
    }

  auto SweepPartnerIndex = [&](std::vector<std::vector<uint32_t>> &Index) {
    for (std::vector<uint32_t> &Ids : Index) {
      size_t Kept = 0;
      for (uint32_t Id : Ids)
        if (!DB.deleted(Id))
          Ids[Kept++] = Id;
      Purged += Ids.size() - Kept;
      Ids.resize(Kept);
    }
  };
  SweepPartnerIndex(FromByMax);
  SweepPartnerIndex(IntoByMax);

  Stats.StalePurged += Purged;
  StaleDeleted = 0;
}

//===----------------------------------------------------------------------===//
// Main loop
//===----------------------------------------------------------------------===//

SatResult Saturation::saturate(Fuel &F) {
  while (!Passive.empty() || EmptyClauseId) {
    if (EmptyClauseId)
      return SatResult::Unsatisfiable;
    if (!F.consume())
      return SatResult::OutOfFuel;
    stepGivenClause();
  }
  return SatResult::Saturated;
}

SatResult Saturation::saturateModelGuided(
    Fuel &F, std::optional<GroundRewriteSystem> &Model) {
  Model.reset();
  // Incremental attempts replay Gen only from the first change since
  // the last attempt and answer most normalizations from the warm
  // memo (the remaining per-attempt work is cheap linear scans);
  // from-scratch attempts re-sort and rebuild everything. On
  // unsatisfiable sets attempts never succeed, so amortize them
  // geometrically against inference steps.
  uint64_t StepsUntilAttempt = 0;
  uint64_t AttemptPeriod = 1;
  for (;;) {
    if (EmptyClauseId)
      return SatResult::Unsatisfiable;

    if (StepsUntilAttempt == 0 || Passive.empty()) {
      // Attempt a certified model of everything stored so far. The
      // span args carry this attempt's share of the incremental-replay
      // counters (deltas, not running totals).
      obs::TraceSpan Span("model-attempt");
      ++Stats.ModelAttempts;
      Span.arg("attempt", Stats.ModelAttempts);
      uint64_t GenReplayed0 = Stats.GenReplayedFrom;
      uint64_t CertSkipped0 = Stats.CertSkipped;
      uint64_t NfReuse0 = Stats.NfCacheReuse;
      bool Certified;
      if (Opts.IncrementalModel) {
        Certified = attemptModelIncremental(Model);
      } else {
        std::vector<uint32_t> Ids = allStored();
        GroundRewriteSystem R = genModelFrom(Ids);
        Certified = modelCertified(R, Ids);
        if (Certified)
          Model.emplace(std::move(R));
      }
      Span.arg("gen_replayed_from", Stats.GenReplayedFrom - GenReplayed0);
      Span.arg("cert_skipped", Stats.CertSkipped - CertSkipped0);
      Span.arg("nf_cache_reuse", Stats.NfCacheReuse - NfReuse0);
      Span.arg("certified", static_cast<uint64_t>(Certified));
      if (Certified)
        return SatResult::Saturated;
      if (Passive.empty()) {
        // Fully saturated, consistent, and still no certified model
        // would contradict Theorem 3.1 / Lemma 3.9.
        assert(false && "saturated consistent set must certify its model");
        Model.emplace(genModelFrom(allStored()));
        return SatResult::Saturated;
      }
      AttemptPeriod = std::min<uint64_t>(AttemptPeriod * 2, 64);
      StepsUntilAttempt = AttemptPeriod;
    }

    if (!F.consume())
      return SatResult::OutOfFuel;
    stepGivenClause();
    --StepsUntilAttempt;
  }
}

//===----------------------------------------------------------------------===//
// Incremental model attempts
//===----------------------------------------------------------------------===//

bool Saturation::clauseOrderLess(uint32_t A, uint32_t B) const {
  if (A == B)
    return false;
  // Memoized tie-break: the ordered live set and the model-generation
  // sort compare the same id pairs over and over; a hit answers from
  // the small-id key without touching the literal pool.
  const uint64_t Key = (static_cast<uint64_t>(A) << 32) | B;
  if (OrderMemo.empty())
    OrderMemo.resize(OrderMemoSize);
  const size_t Slot = (Key * 0x9E3779B97F4A7C15ull) >> 52; // log2(Size)=12
  OrderMemoEntry &E = OrderMemo[Slot];
  if (E.Key == Key && E.Epoch == OrderMemoEpoch) {
    ++Stats.OrderCacheHits;
    return E.Less;
  }
  ++Stats.OrderCacheMisses;
  const bool Less = clauseOrderLessUncounted(A, B);
  E = {Key, OrderMemoEpoch, Less};
  return Less;
}

bool Saturation::clauseOrderLessUncounted(uint32_t A, uint32_t B) const {
  // Materialize both lists before taking spans: interning one can
  // relocate the pool backing the other.
  (void)sortedLits(A);
  (void)sortedLits(B);
  std::span<const OrientedLiteral> LA = sortedLits(A), LB = sortedLits(B);
  std::strong_ordering O = std::lexicographical_compare_three_way(
      LA.begin(), LA.end(), LB.begin(), LB.end());
  return O == 0 ? A < B : O < 0;
}

void Saturation::orderedLiveInsert(uint32_t Id) {
  // Materialize the new clause's list first: a cache miss inside the
  // comparator would grow the cache vector and dangle the other
  // argument's reference (every already-live id is materialized).
  (void)sortedLits(Id);
  auto It = std::lower_bound(
      OrderedLive.begin(), OrderedLive.end(), Id,
      [this](uint32_t A, uint32_t B) { return clauseOrderLess(A, B); });
  size_t Idx = static_cast<size_t>(It - OrderedLive.begin());
  LiveWatermark = std::min(LiveWatermark, Idx);
  OrderedLive.insert(It, Id);
  SLP_INVARIANT(Idx == 0 ||
                    clauseOrderLessUncounted(OrderedLive[Idx - 1], Id),
                "clause DB ordering broken left of insertion point");
  SLP_INVARIANT(Idx + 1 == OrderedLive.size() ||
                    clauseOrderLessUncounted(Id, OrderedLive[Idx + 1]),
                "clause DB ordering broken right of insertion point");
}

void Saturation::orderedLiveErase(uint32_t Id) {
  auto It = std::lower_bound(
      OrderedLive.begin(), OrderedLive.end(), Id,
      [this](uint32_t A, uint32_t B) { return clauseOrderLess(A, B); });
  assert(It != OrderedLive.end() && *It == Id &&
         "deleting a clause that is not in the ordered live set");
  LiveWatermark = std::min(
      LiveWatermark, static_cast<size_t>(It - OrderedLive.begin()));
  OrderedLive.erase(It);
}

bool Saturation::attemptModelIncremental(
    std::optional<GroundRewriteSystem> &Model) {
  SLP_INVARIANT(
      std::is_sorted(OrderedLive.begin(), OrderedLive.end(),
                     [this](uint32_t A, uint32_t B) {
                       return clauseOrderLessUncounted(A, B);
                     }),
      "ordered live set out of order at model generation");
  // The prefix of the ordered live sequence below the watermark is
  // unchanged since the last snapshot, so Gen — whose state after i
  // clauses is a function of exactly those clauses — replays
  // identically on it. (LiveWatermark is ~0 when nothing changed; the
  // clamp then covers the whole common length.)
  size_t W = 0;
  if (ModelSnapshotValid)
    W = std::min({LiveWatermark, PrevLiveSize, OrderedLive.size()});
  Stats.GenReplayedFrom += W;

  // Keep the previous rule sequence for the epoch test, rewind the
  // persistent system to the last unchanged decision, and re-run Gen
  // from there. Memo entries computed under the kept rule prefix
  // survive the truncation.
  PrevRules.assign(IncModel.rules().begin(), IncModel.rules().end());
  IncModel.truncateTo(W ? RulesAfter[W - 1] : 0);
  RulesAfter.resize(OrderedLive.size());
  for (size_t I = W; I != OrderedLive.size(); ++I) {
    genStep(IncModel, OrderedLive[I]);
    RulesAfter[I] = static_cast<uint32_t>(IncModel.size());
  }
  PrevLiveSize = OrderedLive.size();
  LiveWatermark = ~size_t(0);
  ModelSnapshotValid = true;

  // Satisfaction and residual verdicts carry over from the previous
  // attempt only if this attempt built the very same rule sequence.
  if (IncModel.rules() != PrevRules)
    ++CertEpoch;

  if (SatOkEpoch.size() < DB.numClauses())
    SatOkEpoch.resize(DB.numClauses(), 0);

  bool Ok = true;
  for (uint32_t Id : OrderedLive) {
    if (SatOkEpoch[Id] == CertEpoch) {
      ++Stats.CertSkipped;
      continue;
    }
    if (!modelSatisfies(IncModel, DB.view(Id))) {
      Ok = false;
      break;
    }
    SatOkEpoch[Id] = CertEpoch;
  }
  // Lemma 3.1(2): the residual of each generating clause must be
  // falsified by the *final* R (later edges can invalidate earlier
  // production decisions on an unsaturated set, so re-check).
  if (Ok) {
    if (ResidualOkEpoch.size() < DB.numClauses())
      ResidualOkEpoch.resize(DB.numClauses(), 0);
    for (const RewriteRule &Rule : IncModel.rules()) {
      const uint32_t GenId = Rule.GeneratingClause;
      if (ResidualOkEpoch[GenId] == CertEpoch) {
        ++Stats.CertSkipped;
        continue;
      }
      ClauseView Gen = DB.view(GenId);
      Equation Edge(Rule.Lhs, Rule.Rhs);
      bool Falsified = true;
      for (const Equation &E : Gen.neg())
        Falsified &= IncModel.equivalent(E.lhs(), E.rhs());
      for (const Equation &E : Gen.pos())
        Falsified &= (E == Edge || !IncModel.equivalent(E.lhs(), E.rhs()));
      if (!Falsified) {
        Ok = false;
        break;
      }
      ResidualOkEpoch[GenId] = CertEpoch;
    }
  }
  Stats.NfCacheReuse = IncModel.cacheReuse();
  if (!Ok)
    return false;
  // Hand out the rules only, not the (large) normal-form memo: the
  // warm system must stay behind to seed the next attempt after the
  // caller adds more clauses, and re-deriving the caller's normal
  // forms is cheaper than duplicating the whole memo every success.
  Model.emplace();
  for (const RewriteRule &Rule : IncModel.rules())
    Model->addRule(Rule.Lhs, Rule.Rhs, Rule.GeneratingClause);
  return true;
}

void Saturation::stepGivenClause() {
  // Safe point for index compaction: no partner-list traversal is in
  // flight between given-clause iterations.
  maybeCompactIndexes();

  // Pop the smallest passive clause (by literal count, then age);
  // small clauses simplify more and reach the empty clause sooner.
  uint32_t GivenId = Passive.top().second;
  Passive.pop();
  if (DB.deleted(GivenId))
    return;

  // Forward demodulation: replace the given clause by its normal
  // form and requeue.
  if (demodClause(DB.view(GivenId), GivenId)) {
    deleteClause(GivenId);
    ++Stats.Demodulated;
    intake(RuleKind::Demod, ParentScratch);
    return;
  }

  ClauseView C = DB.view(GivenId);
  // intake() stores no tautology, and superpose() relies on that.
  SLP_INVARIANT(!C.isTautology(), "a stored clause is a tautology");
  // Another live clause may have arrived since this one was queued.
  // (Keep-time backward subsumption deletes most such clauses already;
  // this is a cheap signature-filtered safety net.)
  if (isForwardSubsumed(C, SigById[GivenId], GivenId)) {
    deleteClause(GivenId);
    ++Stats.SubsumedFwd;
    return;
  }
  if (C.empty()) {
    if (!EmptyClauseId)
      EmptyClauseId = GivenId;
    return;
  }

  Active.push_back(GivenId);
  maybeAddDemodulator(GivenId);
  generateInferences(GivenId);
}

std::vector<uint32_t> Saturation::allStored() const {
  std::vector<uint32_t> Ids;
  const uint32_t N = static_cast<uint32_t>(DB.numClauses());
  Ids.reserve(N);
  for (uint32_t Id = 0; Id != N; ++Id)
    if (!DB.deleted(Id))
      Ids.push_back(Id);
  return Ids;
}

std::vector<uint32_t> Saturation::liveClauses() const {
  std::vector<uint32_t> Live;
  for (uint32_t Id : Active)
    if (!DB.deleted(Id))
      Live.push_back(Id);
  // Revived clauses may be activated twice; deduplicate.
  std::sort(Live.begin(), Live.end());
  Live.erase(std::unique(Live.begin(), Live.end()), Live.end());
  return Live;
}

//===----------------------------------------------------------------------===//
// Inference rules
//===----------------------------------------------------------------------===//

void Saturation::generateInferences(uint32_t GivenId) {
  equalityResolution(GivenId);
  equalityFactoring(GivenId);

  const OrientedLiteral MG = maxLiteral(GivenId);

  // Register the given clause in the partner indexes.
  const uint32_t Max = MG.max().id();
  if (Max >= IntoByMax.size()) {
    FromByMax.resize(Max + 1);
    IntoByMax.resize(Max + 1);
  }
  const bool From = !MG.negative() && MG.max() != MG.min();
  if (From)
    FromByMax[Max].push_back(GivenId);
  IntoByMax[Max].push_back(GivenId);

  // The partner lists are walked in place: only this function appends
  // to them, above, and only compactIndexes() removes from them, between
  // given clauses; superpose() touches neither.
  // Given as 'from': partners whose maximal side is MG.max().
  if (From) {
    for (uint32_t Partner : IntoByMax[Max]) {
      if (DB.deleted(GivenId))
        return;
      if (Partner != GivenId && !DB.deleted(Partner))
        superpose(GivenId, Partner);
    }
  }

  // Given as 'into': partners whose from-term is MG.max().
  for (uint32_t Partner : FromByMax[Max]) {
    if (DB.deleted(GivenId))
      return;
    if (Partner != GivenId && !DB.deleted(Partner))
      superpose(Partner, GivenId);
  }
}

void Saturation::superpose(uint32_t FromId, uint32_t IntoId) {
  // The 'from' premise needs a strictly maximal positive nontrivial
  // equation l ' r with l > r: only the unique maximal literal
  // qualifies. Self-superposition on that literal only yields
  // tautologies, so identical premises are skipped.
  if (FromId == IntoId)
    return;
  const OrientedLiteral MF = maxLiteral(FromId);
  if (MF.negative() || MF.max() == MF.min())
    return;
  // The 'into' literal must be (strictly) maximal in its clause: again
  // only the unique maximal literal qualifies. Terms are constants, so
  // MF.max() occurs in it only as its larger side, which becomes MF.min().
  const OrientedLiteral MG = maxLiteral(IntoId);
  if (MG.max() != MF.max())
    return;

  ClauseView FView = DB.view(FromId), GView = DB.view(IntoId);
  const Equation FromEq(MF.max(), MF.min());
  const Equation IntoEq(MG.max(), MG.min());
  const Equation NewEq(MF.min(), MG.min());
  const bool Left = MG.negative();
  // Most conclusions are tautologies: decide that before merging, and
  // count them as intake() would.
  if (superpositionIsTautology(FView, SigById[FromId], GView, SigById[IntoId],
                               FromEq, IntoEq, NewEq, Left)) {
    ++Stats.Derived;
    ++Stats.Tautologies;
    return;
  }
  // The conclusion is merged from the premises' canonical sides into
  // the scratch; only intake() grows the equation pool under the views.
  const uint32_t Parents[] = {FromId, IntoId};
  if (Left) {
    // Superposition left: Γ1,Γ2, r't -> ∆1,∆2.
    mergeCanonical(NegScratch, FView.neg(), std::nullopt, GView.neg(), IntoEq,
                   NewEq);
    mergeCanonical(PosScratch, FView.pos(), FromEq, GView.pos(), std::nullopt,
                   std::nullopt);
    intake(RuleKind::SupLeft, Parents);
  } else {
    // Superposition right: Γ1,Γ2 -> ∆1,∆2, r't.
    mergeCanonical(NegScratch, FView.neg(), std::nullopt, GView.neg(),
                   std::nullopt, std::nullopt);
    mergeCanonical(PosScratch, FView.pos(), FromEq, GView.pos(), IntoEq,
                   NewEq);
    intake(RuleKind::SupRight, Parents);
  }
}

void Saturation::equalityResolution(uint32_t Id) {
  // Only a maximal trivial negative equation s ' s resolves; with a
  // unique maximal literal, check just that one.
  const OrientedLiteral M = maxLiteral(Id);
  if (!M.negative() || M.max() != M.min())
    return;
  ClauseView C = DB.view(Id);
  mergeCanonical(NegScratch, C.neg(), Equation(M.max(), M.min()), {},
                 std::nullopt, std::nullopt);
  PosScratch.assign(C.pos().begin(), C.pos().end());
  const uint32_t Parents[] = {Id};
  intake(RuleKind::EqRes, Parents);
}

void Saturation::equalityFactoring(uint32_t Id) {
  // Γ -> ∆, s't, s't'  ⊢  Γ, t't' -> ∆, s't' with s't maximal: only
  // the unique maximal literal can play s't.
  const OrientedLiteral M = maxLiteral(Id);
  if (M.negative() || M.max() == M.min())
    return;
  const Equation MEq(M.max(), M.min());
  const uint32_t Parents[] = {Id};
  const size_t NumPos = DB.view(Id).pos().size();
  for (size_t I = 0; I != NumPos; ++I) {
    // Re-read the view: each intake() may grow the equation pool.
    ClauseView C = DB.view(Id);
    const Equation E2 = C.pos()[I];
    if (E2 == MEq)
      continue;
    OrientedLiteral L2(E2, /*Negative=*/false);
    if (L2.max() != M.max())
      continue;
    mergeCanonical(NegScratch, C.neg(), std::nullopt, {}, std::nullopt,
                   Equation(M.min(), L2.min()));
    mergeCanonical(PosScratch, C.pos(), MEq, {}, std::nullopt, std::nullopt);
    intake(RuleKind::EqFact, Parents);
  }
}

//===----------------------------------------------------------------------===//
// Model generation (Gen of §3.3)
//===----------------------------------------------------------------------===//

GroundRewriteSystem Saturation::genModel() const {
  assert(Passive.empty() && !EmptyClauseId &&
         "genModel requires a saturated, consistent clause set");
  return genModelFrom(liveClauses());
}

const Saturation::LitListRef &Saturation::internLits(uint32_t Id) const {
  if (LitRefs.size() <= Id)
    LitRefs.resize(Id + 1);
  // Orient and sort into the scratch buffer, then append to the flat
  // pool (clauses are immutable, so the list never changes afterwards).
  LitScratch.clear();
  ClauseView C = DB.view(Id);
  LitScratch.reserve(C.size());
  for (const Equation &E : C.neg())
    LitScratch.emplace_back(E, /*Negative=*/true);
  for (const Equation &E : C.pos())
    LitScratch.emplace_back(E, /*Negative=*/false);
  std::sort(LitScratch.begin(), LitScratch.end(), std::greater<>());
  LitListRef &Ref = LitRefs[Id];
  Ref.Off = static_cast<uint32_t>(LitPool.size());
  Ref.Len = static_cast<uint32_t>(LitScratch.size());
  if (!LitScratch.empty())
    Ref.Max = LitScratch.front();
  LitPool.insert(LitPool.end(), LitScratch.begin(), LitScratch.end());
  Stats.PoolLiterals = LitPool.size();
  return Ref;
}

GroundRewriteSystem
Saturation::genModelFrom(std::vector<uint32_t> Ids) const {
  GroundRewriteSystem R;

  // Process clauses in ascending clause order (Bachmair-Ganzinger).
  // The per-id sorted literal lists are interned in the flat pool: the
  // model-guided saturation re-sorts the whole database on every
  // attempt, and re-deriving the lists per comparison would dominate
  // its cost. Materialize every list first so comparator probes never
  // grow the pool mid-sort.
  for (uint32_t Id : Ids)
    (void)sortedLits(Id);
  std::sort(Ids.begin(), Ids.end(),
            [this](uint32_t A, uint32_t B) { return clauseOrderLess(A, B); });

  for (uint32_t Id : Ids)
    genStep(R, Id);
  return R;
}

void Saturation::genStep(GroundRewriteSystem &R, uint32_t Id) const {
  // Only the greatest literal can be strictly maximal, and it is iff
  // it strictly exceeds the runner-up; canonical clauses carry no
  // duplicate literals, so the comparison below is never Equal.
  std::span<const OrientedLiteral> Lits = sortedLits(Id);
  if (Lits.empty())
    return;
  const OrientedLiteral &L = Lits.front();
  if (L.negative() || L.max() == L.min())
    return;
  if (Lits.size() > 1 && Lits[1] >= L)
    return;
  // Productive only if the clause is false so far and the left-hand
  // side is irreducible.
  if (R.normalize(L.max()) != L.max())
    return;
  if (modelSatisfies(R, DB.view(Id)))
    return;
  R.addRule(L.max(), L.min(), Id);
}

bool Saturation::modelCertified(const GroundRewriteSystem &R,
                                const std::vector<uint32_t> &Ids) const {
  for (uint32_t Id : Ids)
    if (!modelSatisfies(R, DB.view(Id)))
      return false;
  // Lemma 3.1(2): the residual of each generating clause must be
  // falsified by the *final* R (later edges can invalidate earlier
  // production decisions on an unsaturated set, so re-check).
  for (const RewriteRule &Rule : R.rules()) {
    ClauseView Gen = DB.view(Rule.GeneratingClause);
    Equation Edge(Rule.Lhs, Rule.Rhs);
    for (const Equation &E : Gen.neg())
      if (!R.equivalent(E.lhs(), E.rhs()))
        return false;
    for (const Equation &E : Gen.pos())
      if (E != Edge && R.equivalent(E.lhs(), E.rhs()))
        return false;
  }
  return true;
}

bool Saturation::modelSatisfies(const GroundRewriteSystem &R,
                                ClauseView C) {
  for (const Equation &E : C.neg())
    if (!R.equivalent(E.lhs(), E.rhs()))
      return true;
  for (const Equation &E : C.pos())
    if (R.equivalent(E.lhs(), E.rhs()))
      return true;
  return false;
}

bool Saturation::verifyModel(const GroundRewriteSystem &R) const {
  for (uint32_t Id : liveClauses())
    if (!modelSatisfies(R, DB.view(Id)))
      return false;
  return true;
}
