//===- sl/Oracle.cpp - Brute-force bounded oracle ---------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "sl/Oracle.h"

#include <algorithm>

using namespace slp;
using namespace slp::sl;

namespace {

/// Enumerates heaps over node set {1..NumNodes} (targets additionally
/// include nil) via an odometer: per source, 0 = unallocated,
/// 1..NumNodes+1 = target (NumNodes+1 encodes nil).
class HeapEnumerator {
public:
  explicit HeapEnumerator(unsigned NumNodes)
      : NumNodes(NumNodes), Digits(NumNodes, 0), Done(false) {}

  bool done() const { return Done; }

  Heap current() const {
    Heap H;
    for (unsigned Src = 0; Src != NumNodes; ++Src) {
      unsigned D = Digits[Src];
      if (D == 0)
        continue;
      Loc Target = (D == NumNodes + 1) ? NilLoc : D;
      H.set(Src + 1, Target);
    }
    return H;
  }

  void advance() {
    for (unsigned I = 0; I != NumNodes; ++I) {
      if (++Digits[I] <= NumNodes + 1)
        return;
      Digits[I] = 0;
    }
    Done = true;
  }

private:
  unsigned NumNodes;
  std::vector<unsigned> Digits;
  bool Done;
};

} // namespace

std::optional<CounterModel>
sl::searchCounterexample(const TermTable &Terms, const Entailment &E,
                         unsigned ExtraLocations) {
  (void)Terms; // Part of the API for symmetry with the other oracles.
  // Gather the non-nil program variables of the entailment.
  std::vector<Symbol> Vars;
  E.collectTerms(Vars);
  Vars.erase(std::remove_if(Vars.begin(), Vars.end(),
                            [](Symbol T) { return T.isNil(); }),
             Vars.end());
  unsigned N = static_cast<unsigned>(Vars.size());

  // Enumerate set partitions via restricted growth strings, where
  // class 0 is nil's class and classes 1.. map to locations 1..
  std::vector<unsigned> RGS(N, 0);
  for (;;) {
    unsigned NumClasses = 0;
    for (unsigned C : RGS)
      NumClasses = std::max(NumClasses, C);

    Stack S;
    for (unsigned I = 0; I != N; ++I)
      S.bind(Vars[I], RGS[I] == 0 ? NilLoc : RGS[I]);

    unsigned NumNodes = NumClasses + ExtraLocations;
    for (HeapEnumerator HE(NumNodes); !HE.done(); HE.advance()) {
      Heap H = HE.current();
      if (isCounterexample(S, H, E))
        return CounterModel{S, H};
    }

    // Next restricted growth string: digit I may be 0..max(prefix)+1.
    unsigned I = N;
    for (;;) {
      if (I == 0)
        return std::nullopt;
      --I;
      unsigned MaxPrefix = 0;
      for (unsigned J = 0; J != I; ++J)
        MaxPrefix = std::max(MaxPrefix, RGS[J]);
      if (RGS[I] <= MaxPrefix) {
        ++RGS[I];
        std::fill(RGS.begin() + I + 1, RGS.end(), 0);
        break;
      }
    }
  }
}
