//===- tools/slpgen.cpp - Random instance generator ---------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits random entailment instances (in `slp` input syntax) from the
/// two distributions of the paper's evaluation.
///
///   slpgen --dist=1|2 [--vars=N] [--count=K] [--seed=S]
///          [--plseg=P] [--pne=P] [--pnext=P]
///          [--stats] [--metrics-json=FILE]
///
/// --plseg/--pne tune distribution 1 and --pnext tunes distribution 2;
/// a probability flag for the other distribution is a hard error, not
/// a silent no-op, so a typo'd experiment cannot masquerade as the
/// intended one. All probabilities must lie in [0, 1]; --dist accepts
/// exactly 1 or 2; distribution 2 needs --vars=N >= 2.
///
/// --stats prints the generation counters (instances, per-instance
/// latency p50/p99) to stderr; --metrics-json dumps the full registry
/// snapshot, like the prover tools.
///
//===----------------------------------------------------------------------===//

#include "CliUtil.h"

#include "gen/RandomEntailments.h"
#include "obs/Metrics.h"
#include "sl/Formula.h"
#include "support/Timer.h"

#include <cstdio>
#include <iostream>
#include <string>

using namespace slp;

namespace {

int usage() {
  std::cerr << "usage: slpgen --dist=1|2 [--vars=N] [--count=K] "
               "[--seed=S] [--plseg=P] [--pne=P] [--pnext=P] "
               "[--stats] [--metrics-json=FILE]\n";
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Dist = 1, Vars = 10, Count = 10;
  uint64_t Seed = 1;
  double PLseg = 0.10, PNe = 0.20, PNext = 0.70;
  bool HavePLseg = false, HavePNe = false, HavePNext = false;
  bool Stats = false;
  std::string MetricsJsonPath;

  for (int I = 1; I != argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&](size_t Prefix) { return Arg.substr(Prefix); };
    uint64_t N = 0;
    if (Arg.rfind("--dist=", 0) == 0) {
      if (!cli::parseUnsigned(Value(7), N) || (N != 1 && N != 2)) {
        std::cerr << "slpgen: bad distribution in '" << Arg
                  << "' (1 or 2)\n";
        return usage();
      }
      Dist = static_cast<unsigned>(N);
    } else if (Arg.rfind("--vars=", 0) == 0) {
      if (!cli::parseUnsigned(Value(7), N) || N == 0 || N > 1000000) {
        std::cerr << "slpgen: bad value in '" << Arg << "' (1-1000000)\n";
        return usage();
      }
      Vars = static_cast<unsigned>(N);
    } else if (Arg.rfind("--count=", 0) == 0) {
      if (!cli::parseUnsigned(Value(8), N) || N > 100000000) {
        std::cerr << "slpgen: bad value in '" << Arg << "'\n";
        return usage();
      }
      Count = static_cast<unsigned>(N);
    } else if (Arg.rfind("--seed=", 0) == 0) {
      if (!cli::parseUnsigned(Value(7), Seed)) {
        std::cerr << "slpgen: bad value in '" << Arg << "'\n";
        return usage();
      }
    } else if (Arg.rfind("--plseg=", 0) == 0) {
      if (!cli::parseProbability(Value(8), PLseg)) {
        std::cerr << "slpgen: bad probability in '" << Arg << "' (0-1)\n";
        return usage();
      }
      HavePLseg = true;
    } else if (Arg.rfind("--pne=", 0) == 0) {
      if (!cli::parseProbability(Value(6), PNe)) {
        std::cerr << "slpgen: bad probability in '" << Arg << "' (0-1)\n";
        return usage();
      }
      HavePNe = true;
    } else if (Arg.rfind("--pnext=", 0) == 0) {
      if (!cli::parseProbability(Value(8), PNext)) {
        std::cerr << "slpgen: bad probability in '" << Arg << "' (0-1)\n";
        return usage();
      }
      HavePNext = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg.rfind("--metrics-json=", 0) == 0) {
      MetricsJsonPath = Value(15);
      if (MetricsJsonPath.empty()) {
        std::cerr << "slpgen: empty path in '" << Arg << "'\n";
        return usage();
      }
    } else {
      if (!Arg.empty() && Arg[0] == '-')
        std::cerr << "slpgen: unknown option '" << Arg << "'\n";
      return usage();
    }
  }

  // Flags may arrive in any order, so distribution/probability
  // consistency is checked once everything is parsed.
  if (Dist == 1 && HavePNext) {
    std::cerr << "slpgen: --pnext only applies to --dist=2 "
                 "(distribution 1 uses --plseg/--pne)\n";
    return usage();
  }
  if (Dist == 2 && (HavePLseg || HavePNe)) {
    std::cerr << "slpgen: --plseg/--pne only apply to --dist=1 "
                 "(distribution 2 uses --pnext)\n";
    return usage();
  }
  if (Dist == 2 && Vars < 2) {
    std::cerr << "slpgen: --dist=2 needs --vars=N with N >= 2 "
                 "(the permutation graph has no 1-variable instances)\n";
    return usage();
  }

  obs::Histogram &GenNs = obs::metrics().histogram("gen.entailment_ns");

  SymbolTable Symbols;
  TermTable Terms(Symbols);
  SplitMix64 Rng(Seed);
  for (unsigned I = 0; I != Count; ++I) {
    // Time the generation only, not the stdout rendering.
    sl::Entailment E = [&] {
      ScopedTimer ST(GenNs);
      return Dist == 1 ? gen::distribution1(Terms, Rng, Vars, PLseg, PNe)
                       : gen::distribution2(Terms, Rng, Vars, PNext);
    }();
    std::cout << sl::str(Terms, E) << "\n";
  }
  obs::metrics().add("gen.instances", Count);

  if (Stats) {
    obs::HistogramSnapshot H = GenNs.snapshot();
    std::fprintf(stderr,
                 "gen: %llu instances (dist %u, %u vars); per-instance "
                 "p50 %.0fns, p99 %.0fns, max %.0fns\n",
                 static_cast<unsigned long long>(Count), Dist, Vars,
                 H.quantile(0.5), H.quantile(0.99),
                 static_cast<double>(H.Max));
  }
  if (!MetricsJsonPath.empty() && !obs::writeMetricsJson(MetricsJsonPath)) {
    std::fprintf(stderr, "slpgen: cannot write metrics file '%s'\n",
                 MetricsJsonPath.c_str());
    return 1;
  }
  return 0;
}
