//===- gen/Cloning.cpp - Table 3 'clone' amplification ------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "gen/Cloning.h"

#include <string>

using namespace slp;
using namespace slp::gen;

sl::Entailment gen::cloneEntailment(TermTable &Terms, const sl::Entailment &E,
                                    unsigned Copies) {
  assert(Copies >= 1 && "at least one copy required");
  sl::Entailment Out;
  for (unsigned K = 0; K != Copies; ++K) {
    auto Rename = [&](Symbol T) -> Symbol {
      if (T.isNil())
        return T;
      std::string Name = Terms.str(T);
      return Terms.constant(Name + "__" + std::to_string(K));
    };
    auto CloneAssertion = [&](const sl::Assertion &In, sl::Assertion &To) {
      for (const sl::PureAtom &A : In.Pure)
        To.Pure.push_back({Rename(A.Lhs), Rename(A.Rhs), A.Negated});
      for (const sl::HeapAtom &A : In.Spatial)
        To.Spatial.push_back({A.Kind, Rename(A.Addr), Rename(A.Val)});
    };
    CloneAssertion(E.Lhs, Out.Lhs);
    CloneAssertion(E.Rhs, Out.Rhs);
  }
  return Out;
}
