//===- tests/core/OrderingChoiceTest.cpp ----------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// The calculus is parameterized by any total simplification order;
/// verdicts must not depend on the choice. Runs the prover with KBO
/// and LPO over random batches and demands identical verdicts.
///
//===----------------------------------------------------------------------===//

#include "core/Prover.h"
#include "gen/RandomEntailments.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::core;

namespace {

class OrderingChoiceTest : public ::testing::TestWithParam<uint64_t> {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
};

} // namespace

TEST_P(OrderingChoiceTest, KboAndLpoAgree) {
  ProverOptions KboOpts;
  ProverOptions LpoOpts;
  LpoOpts.Ordering = OrderingChoice::Lpo;
  SlpProver WithKbo(Terms, KboOpts);
  SlpProver WithLpo(Terms, LpoOpts);

  SplitMix64 Rng(GetParam());
  for (int I = 0; I != 25; ++I) {
    sl::Entailment E = (I % 2 == 0)
                           ? gen::distribution1(Terms, Rng, 6, 0.3, 0.3)
                           : gen::distribution2(Terms, Rng, 8, 0.6);
    ProveResult A = WithKbo.prove(E);
    ProveResult B = WithLpo.prove(E);
    EXPECT_EQ(A.V, B.V) << "ordering choice changed the verdict on: "
                        << sl::str(Terms, E);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingChoiceTest,
                         ::testing::Values(101, 202, 303, 404));
