//===- fuzz/Campaign.cpp - Metamorphic + differential fuzz campaigns ---------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"

#include "analysis/StaticAnalyzer.h"
#include "baselines/Backends.h"
#include "engine/BatchProver.h"
#include "engine/CanonicalKey.h"
#include "gen/Cloning.h"
#include "gen/RandomEntailments.h"
#include "obs/Metrics.h"
#include "sl/Parser.h"
#include "support/Random.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace slp;
using namespace slp::fuzz;

const char *fuzz::findingCategoryName(FindingCategory C) {
  switch (C) {
  case FindingCategory::CrossBackend:
    return "cross-backend";
  case FindingCategory::RelationViolation:
    return "relation-violation";
  case FindingCategory::PresolveUnsound:
    return "presolve-unsound";
  case FindingCategory::CanonicalKeyMismatch:
    return "canonical-key-mismatch";
  case FindingCategory::RenderError:
    return "render-error";
  case FindingCategory::SeedParseError:
    return "seed-parse-error";
  }
  return "unknown";
}

namespace {

/// Reduction attempts one finding may spend before shrinking gives up
/// and keeps the smallest reproducer found so far.
constexpr unsigned MaxShrinkSteps = 400;

/// A unit that keeps producing disagreements stops fuzzing after this
/// many findings: one root cause tends to fire on every variant, and
/// the campaign's job is breadth, not re-confirmation.
constexpr unsigned MaxFindingsPerUnit = 8;

/// One backend's answer on one text.
struct OracleVerdict {
  std::string Name;
  core::Verdict V = core::Verdict::Unknown;
  bool Parsed = true;
  bool Complete = false;

  bool definitive() const {
    return Parsed && V != core::Verdict::Unknown;
  }
};

/// "slp=valid berdine=invalid unfolding=unknown".
std::string verdictTable(const std::vector<OracleVerdict> &Vs) {
  std::string Out;
  for (const OracleVerdict &O : Vs) {
    if (!Out.empty())
      Out += " ";
    Out += O.Name + "=" + (O.Parsed ? core::verdictName(O.V) : "parse-error");
  }
  return Out;
}

/// Two definitive verdicts that differ?
bool crossDisagree(const std::vector<OracleVerdict> &Vs) {
  for (size_t I = 0; I != Vs.size(); ++I)
    for (size_t J = I + 1; J != Vs.size(); ++J)
      if (Vs[I].definitive() && Vs[J].definitive() && Vs[I].V != Vs[J].V)
        return true;
  return false;
}

/// The reference verdict for relation checks: the first *complete*
/// backend's definitive answer (sound + complete => ground truth).
core::Verdict refVerdict(const std::vector<OracleVerdict> &Vs) {
  for (const OracleVerdict &O : Vs)
    if (O.Complete && O.definitive())
      return O.V;
  return core::Verdict::Unknown;
}

Relation chainRelation(const std::vector<ChainLink> &Chain) {
  Relation R = Relation::Equal;
  for (const ChainLink &L : Chain)
    R = compose(R, transformer(L.Kind).Rel);
  return R;
}

bool chainPreservesKey(const std::vector<ChainLink> &Chain) {
  for (const ChainLink &L : Chain)
    if (!transformer(L.Kind).PreservesCanonicalKey)
      return false;
  return !Chain.empty();
}

/// Applies \p Chain to \p E inside \p Terms; nullopt when a link is
/// inapplicable to the (possibly shrunk) input.
std::optional<sl::Entailment> applyChain(TermTable &Terms,
                                         const sl::Entailment &E,
                                         const std::vector<ChainLink> &Chain) {
  sl::Entailment Cur = E;
  for (const ChainLink &L : Chain) {
    std::optional<sl::Entailment> Next =
        fuzz::apply(L.Kind, Terms, Cur, L.LinkSeed);
    if (!Next)
      return std::nullopt;
    Cur = std::move(*Next);
  }
  return Cur;
}

/// Accumulated outcome of one unit, merged in unit order at the end.
struct UnitOutcome {
  uint64_t Variants = 0, Checks = 0, SkippedUnknown = 0, ShrinkSteps = 0;
  std::array<TransformerTally, NumTransformers> T{};
  std::vector<Finding> Findings;
};

/// Everything one worker needs to fuzz one seed.
class UnitRunner {
public:
  UnitRunner(const CampaignOptions &O, unsigned UnitIdx,
             const std::string &SeedText,
             std::vector<std::unique_ptr<core::EntailmentBackend>> &Backends)
      : O(O), UnitIdx(UnitIdx), RawSeedText(SeedText), Backends(Backends),
        Terms(Syms) {}

  UnitOutcome run();

private:
  std::vector<OracleVerdict> proveAll(const std::string &Text);
  void checkVariant(unsigned VariantIdx, const sl::Entailment &Var,
                    const std::vector<ChainLink> &Chain);
  void record(Finding F);

  // -- shrinking ---------------------------------------------------------
  std::string shrinkStandalone(
      std::string Text, const std::function<bool(const std::string &)> &P,
      unsigned &Steps);
  void shrinkChainFinding(Finding &F);
  static std::vector<std::string> atomDropCandidates(const std::string &Text);

  bool standaloneProperty(FindingCategory C, const std::string &Text,
                          std::string *Detail = nullptr);
  bool chainProperty(FindingCategory C, const std::string &SeedT,
                     const std::vector<ChainLink> &Chain,
                     std::string *VariantText = nullptr,
                     std::string *Detail = nullptr);

  const CampaignOptions &O;
  unsigned UnitIdx;
  const std::string &RawSeedText;
  std::vector<std::unique_ptr<core::EntailmentBackend>> &Backends;

  SymbolTable Syms;
  TermTable Terms;
  std::string SeedText; ///< Rendered (normalized) seed.
  core::Verdict SeedRef = core::Verdict::Unknown;
  std::string SeedKey; ///< CanonicalQuery key of the seed.
  UnitOutcome Out;
};

std::vector<OracleVerdict> UnitRunner::proveAll(const std::string &Text) {
  std::vector<OracleVerdict> Vs;
  Vs.reserve(Backends.size());
  core::ProofTask Task;
  Task.Text = Text;
  for (std::unique_ptr<core::EntailmentBackend> &B : Backends) {
    Fuel F = O.FuelPerProve ? Fuel(O.FuelPerProve) : Fuel();
    core::BackendResult R = B->prove(Task, F);
    Vs.push_back({B->name(), R.V, R.Parsed, B->complete()});
  }
  return Vs;
}

/// Parses \p Text standalone; nullopt on error.
std::optional<sl::Entailment> parseText(TermTable &T,
                                        const std::string &Text) {
  sl::ParseResult P = sl::parseEntailment(T, Text);
  if (!P.ok())
    return std::nullopt;
  return *P.Value;
}

bool UnitRunner::standaloneProperty(FindingCategory C,
                                    const std::string &Text,
                                    std::string *Detail) {
  if (C == FindingCategory::RenderError) {
    std::vector<OracleVerdict> Vs = proveAll(Text);
    for (const OracleVerdict &V : Vs)
      if (!V.Parsed) {
        if (Detail)
          *Detail = verdictTable(Vs);
        return true;
      }
    return false;
  }
  if (C == FindingCategory::CrossBackend) {
    std::vector<OracleVerdict> Vs = proveAll(Text);
    if (!crossDisagree(Vs))
      return false;
    if (Detail)
      *Detail = verdictTable(Vs);
    return true;
  }
  // PresolveUnsound: the analyzer's definitive answer contradicts a
  // definitive backend verdict.
  SymbolTable S;
  TermTable T(S);
  std::optional<sl::Entailment> E = parseText(T, Text);
  if (!E)
    return false;
  analysis::AnalysisResult A = analysis::analyze(T, *E);
  if (!A.definitive())
    return false;
  std::vector<OracleVerdict> Vs = proveAll(Text);
  for (const OracleVerdict &V : Vs)
    if (V.definitive() && V.V != A.V) {
      if (Detail)
        *Detail = std::string("presolve=") + core::verdictName(A.V) + " (" +
                  analysis::reasonName(A.R) + ") vs " + verdictTable(Vs);
      return true;
    }
  return false;
}

bool UnitRunner::chainProperty(FindingCategory C, const std::string &SeedT,
                               const std::vector<ChainLink> &Chain,
                               std::string *VariantText,
                               std::string *Detail) {
  SymbolTable S;
  TermTable T(S);
  std::optional<sl::Entailment> E = parseText(T, SeedT);
  if (!E)
    return false;
  std::optional<sl::Entailment> Var = applyChain(T, *E, Chain);
  if (!Var)
    return false;
  std::string VarText = sl::str(T, *Var);
  if (VariantText)
    *VariantText = VarText;

  if (C == FindingCategory::CanonicalKeyMismatch) {
    if (!chainPreservesKey(Chain))
      return false;
    bool Differ = engine::CanonicalQuery::of(*E).key() !=
                  engine::CanonicalQuery::of(*Var).key();
    if (Differ && Detail)
      *Detail = "alpha-rename chain changed the canonical key";
    return Differ;
  }

  // RelationViolation.
  Relation Rel = chainRelation(Chain);
  if (Rel == Relation::None || Chain.empty())
    return false;
  core::Verdict In = refVerdict(proveAll(SeedT));
  core::Verdict Out = refVerdict(proveAll(VarText));
  if (!violates(Rel, In, Out))
    return false;
  if (Detail)
    *Detail = std::string("relation ") + relationName(Rel) +
              " violated: seed=" + core::verdictName(In) +
              " variant=" + core::verdictName(Out);
  return true;
}

/// Every one-atom-smaller rendering of \p Text, in a fixed order
/// (LHS spatial, RHS spatial, LHS pure, RHS pure; each by index).
std::vector<std::string>
UnitRunner::atomDropCandidates(const std::string &Text) {
  std::vector<std::string> Cands;
  SymbolTable S;
  TermTable T(S);
  std::optional<sl::Entailment> E = parseText(T, Text);
  if (!E)
    return Cands;
  auto Push = [&](const sl::Entailment &Cand) {
    Cands.push_back(sl::str(T, Cand));
  };
  for (bool Lhs : {true, false}) {
    const sl::SpatialFormula &Sp = (Lhs ? E->Lhs : E->Rhs).Spatial;
    for (size_t I = 0; I != Sp.size(); ++I) {
      sl::Entailment Cand = *E;
      std::vector<sl::HeapAtom> &V = (Lhs ? Cand.Lhs : Cand.Rhs).Spatial;
      V.erase(V.begin() + static_cast<ptrdiff_t>(I));
      Push(Cand);
    }
  }
  for (bool Lhs : {true, false}) {
    const std::vector<sl::PureAtom> &Pu = (Lhs ? E->Lhs : E->Rhs).Pure;
    for (size_t I = 0; I != Pu.size(); ++I) {
      sl::Entailment Cand = *E;
      std::vector<sl::PureAtom> &V = (Lhs ? Cand.Lhs : Cand.Rhs).Pure;
      V.erase(V.begin() + static_cast<ptrdiff_t>(I));
      Push(Cand);
    }
  }
  // Paired drops, one spatial atom from each side: the only move that
  // shrinks symmetric disagreements like A * B |- A * B, where any
  // single-side drop breaks validity and kills the reproduction.
  for (size_t I = 0; I != E->Lhs.Spatial.size(); ++I)
    for (size_t J = 0; J != E->Rhs.Spatial.size(); ++J) {
      sl::Entailment Cand = *E;
      Cand.Lhs.Spatial.erase(Cand.Lhs.Spatial.begin() +
                             static_cast<ptrdiff_t>(I));
      Cand.Rhs.Spatial.erase(Cand.Rhs.Spatial.begin() +
                             static_cast<ptrdiff_t>(J));
      Push(Cand);
    }
  return Cands;
}

std::string UnitRunner::shrinkStandalone(
    std::string Text, const std::function<bool(const std::string &)> &P,
    unsigned &Steps) {
  bool Changed = true;
  while (Changed && Steps < MaxShrinkSteps) {
    Changed = false;
    for (const std::string &Cand : atomDropCandidates(Text)) {
      if (Steps >= MaxShrinkSteps)
        break;
      ++Steps;
      if (P(Cand)) {
        Text = Cand;
        Changed = true;
        break; // Candidates are stale now; re-enumerate.
      }
    }
  }
  return Text;
}

void UnitRunner::shrinkChainFinding(Finding &F) {
  unsigned Steps = 0;
  // Phase 1: drop chain links, front to back, to a fixpoint.
  bool Changed = true;
  while (Changed && Steps < MaxShrinkSteps) {
    Changed = false;
    for (size_t I = 0; I != F.Chain.size(); ++I) {
      if (Steps >= MaxShrinkSteps)
        break;
      std::vector<ChainLink> Cand = F.Chain;
      Cand.erase(Cand.begin() + static_cast<ptrdiff_t>(I));
      ++Steps;
      if (chainProperty(F.Category, F.SeedText, Cand)) {
        F.Chain = std::move(Cand);
        Changed = true;
        break;
      }
    }
  }
  // Phase 2: drop seed atoms under the surviving chain.
  F.SeedText = shrinkStandalone(
      F.SeedText,
      [&](const std::string &Cand) {
        return chainProperty(F.Category, Cand, F.Chain);
      },
      Steps);
  // Re-derive the reproducer and provenance from the shrunk pair.
  std::string VarText, Detail;
  if (chainProperty(F.Category, F.SeedText, F.Chain, &VarText, &Detail)) {
    F.ShrunkText = VarText;
    F.Detail = Detail;
  }
  F.Rel = chainRelation(F.Chain);
  F.ShrinkSteps = Steps;
}

void UnitRunner::record(Finding F) {
  if (Out.Findings.size() >= MaxFindingsPerUnit)
    return;
  if (O.Shrink) {
    switch (F.Category) {
    case FindingCategory::CrossBackend:
    case FindingCategory::PresolveUnsound:
    case FindingCategory::RenderError: {
      unsigned Steps = 0;
      F.ShrunkText = shrinkStandalone(
          F.ShrunkText.empty() ? F.VariantText : F.ShrunkText,
          [&](const std::string &Cand) {
            return standaloneProperty(F.Category, Cand);
          },
          Steps);
      std::string Detail;
      if (standaloneProperty(F.Category, F.ShrunkText, &Detail))
        F.Detail = Detail;
      F.ShrinkSteps = Steps;
      break;
    }
    case FindingCategory::RelationViolation:
    case FindingCategory::CanonicalKeyMismatch:
      shrinkChainFinding(F);
      break;
    case FindingCategory::SeedParseError:
      break; // Nothing to shrink: the text does not parse.
    }
  }
  if (F.ShrunkText.empty())
    F.ShrunkText = F.VariantText;
  Out.ShrinkSteps += F.ShrinkSteps;
  for (const ChainLink &L : F.Chain)
    Out.T[static_cast<size_t>(L.Kind)].Findings += 1;
  Out.Findings.push_back(std::move(F));
}

void UnitRunner::checkVariant(unsigned VariantIdx, const sl::Entailment &Var,
                              const std::vector<ChainLink> &Chain) {
  std::string VarText = sl::str(Terms, Var);
  std::vector<OracleVerdict> Vs = proveAll(VarText);

  Finding Base;
  Base.Unit = UnitIdx;
  Base.Variant = VariantIdx;
  Base.SeedText = SeedText;
  Base.Chain = Chain;
  Base.Rel = chainRelation(Chain);
  Base.VariantText = VarText;
  Base.Detail = verdictTable(Vs);

  // Render round trip: every backend must at least parse the text.
  ++Out.Checks;
  for (const OracleVerdict &V : Vs)
    if (!V.Parsed) {
      Finding F = Base;
      F.Category = FindingCategory::RenderError;
      record(std::move(F));
      return; // Verdicts below are meaningless.
    }

  // Cross-backend differential.
  ++Out.Checks;
  if (crossDisagree(Vs)) {
    Finding F = Base;
    F.Category = FindingCategory::CrossBackend;
    record(std::move(F));
  }

  // Pre-solver soundness.
  if (O.CheckPresolve) {
    ++Out.Checks;
    analysis::AnalysisResult A = analysis::analyze(Terms, Var);
    for (const OracleVerdict &V : Vs)
      if (A.definitive() && V.definitive() && V.V != A.V) {
        Finding F = Base;
        F.Category = FindingCategory::PresolveUnsound;
        F.Detail = std::string("presolve=") + core::verdictName(A.V) + " (" +
                   analysis::reasonName(A.R) + ") vs " + verdictTable(Vs);
        record(std::move(F));
        break;
      }
  }

  // Metamorphic relation against the seed's reference verdict.
  if (!Chain.empty() && Base.Rel != Relation::None) {
    core::Verdict VarRef = refVerdict(Vs);
    if (SeedRef == core::Verdict::Unknown ||
        VarRef == core::Verdict::Unknown) {
      ++Out.SkippedUnknown;
    } else {
      ++Out.Checks;
      if (violates(Base.Rel, SeedRef, VarRef)) {
        Finding F = Base;
        F.Category = FindingCategory::RelationViolation;
        F.Detail = std::string("relation ") + relationName(Base.Rel) +
                   " violated: seed=" + core::verdictName(SeedRef) +
                   " variant=" + core::verdictName(VarRef);
        record(std::move(F));
      }
    }
  }

  // Alpha-invariant cache key: a pure alpha-rename chain must land on
  // the seed's CanonicalQuery key.
  if (chainPreservesKey(Chain)) {
    ++Out.Checks;
    if (engine::CanonicalQuery::of(Var).key() != SeedKey) {
      Finding F = Base;
      F.Category = FindingCategory::CanonicalKeyMismatch;
      F.Detail = "alpha-rename chain changed the canonical key";
      record(std::move(F));
    }
  }
}

UnitOutcome UnitRunner::run() {
  sl::ParseResult P = sl::parseEntailment(Terms, RawSeedText);
  if (!P.ok()) {
    Finding F;
    F.Category = FindingCategory::SeedParseError;
    F.Unit = UnitIdx;
    F.SeedText = RawSeedText;
    F.VariantText = RawSeedText;
    F.ShrunkText = RawSeedText;
    F.Detail = P.Error->render();
    Out.Findings.push_back(std::move(F));
    return std::move(Out);
  }
  sl::Entailment Seed = *P.Value;
  SeedText = sl::str(Terms, Seed);
  SeedKey = engine::CanonicalQuery::of(Seed).key();

  // Variant 0 is the seed itself: backends and presolver must already
  // agree before any transformation.
  std::vector<OracleVerdict> SeedVs = proveAll(SeedText);
  SeedRef = refVerdict(SeedVs);
  checkVariant(0, Seed, {});

  SplitMix64 Rng = SplitMix64::forStream(O.Seed, UnitIdx);
  unsigned MaxChain = O.MaxChain ? O.MaxChain : 1;
  for (unsigned V = 1; V <= O.VariantsPerSeed; ++V) {
    if (Out.Findings.size() >= MaxFindingsPerUnit)
      break;
    unsigned ChainLen = 1 + static_cast<unsigned>(Rng.below(MaxChain));
    sl::Entailment Cur = Seed;
    std::vector<ChainLink> Chain;
    for (unsigned L = 0; L != ChainLen; ++L) {
      bool Applied = false;
      for (unsigned Try = 0; Try != NumTransformers && !Applied; ++Try) {
        auto Kind =
            static_cast<TransformerKind>(Rng.below(NumTransformers));
        uint64_t LinkSeed = Rng.next();
        std::optional<sl::Entailment> Next =
            fuzz::apply(Kind, Terms, Cur, LinkSeed);
        auto &Tally = Out.T[static_cast<size_t>(Kind)];
        if (!Next) {
          ++Tally.Inapplicable;
          continue;
        }
        ++Tally.Applied;
        Cur = std::move(*Next);
        Chain.push_back({Kind, LinkSeed});
        Applied = true;
      }
      if (!Applied)
        break; // Nothing fits this formula; keep the shorter chain.
    }
    if (Chain.empty())
      continue;
    ++Out.Variants;
    checkVariant(V, Cur, Chain);
  }
  return std::move(Out);
}

std::vector<std::unique_ptr<core::EntailmentBackend>> defaultBackends() {
  std::vector<std::unique_ptr<core::EntailmentBackend>> B;
  B.push_back(std::make_unique<core::SlpBackend>());
  B.push_back(std::make_unique<baselines::BerdineBackend>());
  B.push_back(std::make_unique<baselines::UnfoldingBackend>());
  return B;
}

} // namespace

Campaign::Campaign(CampaignOptions O) : Opts(std::move(O)) {}

CampaignReport Campaign::run() {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Opts.BudgetSeconds > 0
          ? Start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(Opts.BudgetSeconds))
          : Clock::time_point::max();

  CampaignReport R;
  R.Seed = Opts.Seed;

  std::vector<std::string> Seeds = Opts.SeedTexts;
  if (Opts.MaxVariants && Opts.VariantsPerSeed) {
    size_t MaxUnits = static_cast<size_t>(
        (Opts.MaxVariants + Opts.VariantsPerSeed - 1) / Opts.VariantsPerSeed);
    if (Seeds.size() > MaxUnits)
      Seeds.resize(MaxUnits);
  }
  R.Units = Seeds.size();

  auto Factory = Opts.BackendFactory
                     ? Opts.BackendFactory
                     : std::function(defaultBackends);

  std::vector<UnitOutcome> Slots(Seeds.size());
  std::vector<char> Ran(Seeds.size(), 0);
  std::atomic<size_t> Next{0};
  std::atomic<bool> Truncated{false};

  auto WorkerFn = [&]() {
    std::vector<std::unique_ptr<core::EntailmentBackend>> Backends =
        Factory();
    for (;;) {
      size_t I = Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= Seeds.size())
        return;
      if (Opts.OnlyUnit >= 0 && I != static_cast<size_t>(Opts.OnlyUnit))
        continue;
      if (Clock::now() >= Deadline) {
        Truncated.store(true, std::memory_order_relaxed);
        return;
      }
      UnitRunner Runner(Opts, static_cast<unsigned>(I), Seeds[I], Backends);
      Slots[I] = Runner.run();
      Ran[I] = 1;
    }
  };

  const unsigned Jobs = static_cast<unsigned>(std::min<size_t>(
      engine::resolveJobs(Opts.Jobs), std::max<size_t>(Seeds.size(), 1)));
  if (Jobs <= 1) {
    WorkerFn();
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(Jobs);
    for (unsigned I = 0; I != Jobs; ++I)
      Threads.emplace_back(WorkerFn);
    for (std::thread &T : Threads)
      T.join();
  }

  for (size_t I = 0; I != Slots.size(); ++I) {
    if (!Ran[I])
      continue;
    ++R.UnitsRun;
    UnitOutcome &U = Slots[I];
    R.Variants += U.Variants;
    R.Checks += U.Checks;
    R.SkippedUnknown += U.SkippedUnknown;
    R.ShrinkSteps += U.ShrinkSteps;
    for (size_t K = 0; K != NumTransformers; ++K) {
      R.Transformers[K].Applied += U.T[K].Applied;
      R.Transformers[K].Inapplicable += U.T[K].Inapplicable;
      R.Transformers[K].Findings += U.T[K].Findings;
    }
    for (Finding &F : U.Findings)
      R.Findings.push_back(std::move(F));
  }
  R.Truncated = Truncated.load();
  R.Seconds =
      std::chrono::duration<double>(Clock::now() - Start).count();

  obs::MetricsRegistry &M = obs::metrics();
  M.add("fuzz.units", R.UnitsRun);
  M.add("fuzz.variants", R.Variants);
  M.add("fuzz.checks", R.Checks);
  M.add("fuzz.findings", R.Findings.size());
  M.add("fuzz.shrink_steps", R.ShrinkSteps);
  M.add("fuzz.skipped_unknown", R.SkippedUnknown);
  for (size_t K = 0; K != NumTransformers; ++K) {
    const std::string Base =
        std::string("fuzz.transformer.") + catalogue()[K].Name;
    M.add(Base + ".applied", R.Transformers[K].Applied);
    M.add(Base + ".inapplicable", R.Transformers[K].Inapplicable);
    M.add(Base + ".findings", R.Transformers[K].Findings);
  }
  return R;
}

std::string CampaignReport::json() const {
  auto Quoted = [](std::string_view Text) {
    std::string Out = "\"";
    obs::appendJsonEscaped(Out, Text);
    return Out += '"';
  };
  std::ostringstream OS;
  OS << "{\n";
  OS << "  \"tool\": \"slp-fuzz\",\n";
  OS << "  \"seed\": " << Seed << ",\n";
  OS << "  \"units\": " << Units << ",\n";
  OS << "  \"units_run\": " << UnitsRun << ",\n";
  OS << "  \"truncated\": " << (Truncated ? "true" : "false") << ",\n";
  OS << "  \"variants\": " << Variants << ",\n";
  OS << "  \"checks\": " << Checks << ",\n";
  OS << "  \"skipped_unknown\": " << SkippedUnknown << ",\n";
  OS << "  \"shrink_steps\": " << ShrinkSteps << ",\n";
  OS << "  \"transformers\": [\n";
  for (size_t K = 0; K != NumTransformers; ++K) {
    const TransformerTally &T = Transformers[K];
    OS << "    {\"name\": \"" << catalogue()[K].Name
       << "\", \"relation\": \"" << relationName(catalogue()[K].Rel)
       << "\", \"applied\": " << T.Applied
       << ", \"inapplicable\": " << T.Inapplicable
       << ", \"findings\": " << T.Findings << "}"
       << (K + 1 == NumTransformers ? "\n" : ",\n");
  }
  OS << "  ],\n";
  OS << "  \"findings\": [\n";
  for (size_t I = 0; I != Findings.size(); ++I) {
    const Finding &F = Findings[I];
    OS << "    {\"category\": \"" << findingCategoryName(F.Category)
       << "\", \"unit\": " << F.Unit << ", \"variant\": " << F.Variant
       << ", \"relation\": \"" << relationName(F.Rel) << "\",\n";
    OS << "     \"chain\": [";
    for (size_t L = 0; L != F.Chain.size(); ++L)
      OS << (L ? ", " : "") << "\"" << transformer(F.Chain[L].Kind).Name
         << "\"";
    OS << "],\n";
    OS << "     \"seed_text\": " << Quoted(F.SeedText)
       << ",\n     \"variant_text\": " << Quoted(F.VariantText)
       << ",\n     \"shrunk_text\": " << Quoted(F.ShrunkText)
       << ",\n     \"detail\": " << Quoted(F.Detail)
       << ",\n     \"shrink_steps\": " << F.ShrinkSteps << "}"
       << (I + 1 == Findings.size() ? "\n" : ",\n");
  }
  OS << "  ]\n";
  OS << "}\n";
  return OS.str();
}

std::vector<std::string> fuzz::defaultSeedCorpus(uint64_t Seed,
                                                 unsigned GenCount,
                                                 unsigned GenVars) {
  // Dedicated stream ids far above any realistic unit index, so the
  // corpus generators never collide with the per-unit fuzz streams.
  constexpr uint64_t CorpusStreamBase = uint64_t(1) << 40;
  std::vector<std::string> Out;
  Out.reserve(static_cast<size_t>(GenCount) * 3);
  SymbolTable Syms;
  TermTable Terms(Syms);
  unsigned Vars = std::max(GenVars, 2u);

  SplitMix64 R1 = gen::streamRng(Seed, CorpusStreamBase + 1);
  for (unsigned I = 0; I != GenCount; ++I)
    Out.push_back(
        sl::str(Terms, gen::distribution1(Terms, R1, Vars, 0.10, 0.20)));

  SplitMix64 R2 = gen::streamRng(Seed, CorpusStreamBase + 2);
  for (unsigned I = 0; I != GenCount; ++I)
    Out.push_back(
        sl::str(Terms, gen::distribution2(Terms, R2, Vars, 0.70)));

  SplitMix64 R3 = gen::streamRng(Seed, CorpusStreamBase + 3);
  for (unsigned I = 0; I != GenCount; ++I) {
    sl::Entailment E = gen::distribution2(Terms, R3, Vars, 0.70);
    Out.push_back(sl::str(Terms, gen::cloneEntailment(Terms, E, 2)));
  }
  return Out;
}

std::optional<std::vector<std::string>>
fuzz::writeFindings(const CampaignReport &R, const std::string &Dir,
                    const std::string &ReplayArgs) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    return std::nullopt;
  std::vector<std::string> Paths;
  for (size_t I = 0; I != R.Findings.size(); ++I) {
    const Finding &F = R.Findings[I];
    char Name[64];
    std::snprintf(Name, sizeof(Name), "finding-%03zu-%s.slp", I,
                  findingCategoryName(F.Category));
    std::string Path = Dir + "/" + Name;
    std::ofstream OutF(Path);
    if (!OutF)
      return std::nullopt;
    OutF << "# slp-fuzz finding " << I << ": "
         << findingCategoryName(F.Category) << "\n";
    OutF << "# campaign seed " << R.Seed << ", unit " << F.Unit
         << ", variant " << F.Variant << "\n";
    if (!F.Chain.empty()) {
      OutF << "# chain:";
      for (const ChainLink &L : F.Chain)
        OutF << " " << transformer(L.Kind).Name;
      OutF << " (relation " << relationName(F.Rel) << ")\n";
    }
    OutF << "# verdicts: " << F.Detail << "\n";
    OutF << "# seed: " << F.SeedText << "\n";
    OutF << "# replay: slp-fuzz --seed=" << R.Seed << " --unit=" << F.Unit
         << (ReplayArgs.empty() ? "" : " ") << ReplayArgs << "\n";
    OutF << F.ShrunkText << "\n";
    if (!OutF)
      return std::nullopt;
    Paths.push_back(std::move(Path));
  }
  return Paths;
}
