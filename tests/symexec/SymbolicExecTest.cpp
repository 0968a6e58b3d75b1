//===- tests/symexec/SymbolicExecTest.cpp ---------------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "core/Prover.h"
#include "symexec/SymbolicExec.h"

#include <gtest/gtest.h>

using namespace slp;
using namespace slp::symexec;

namespace {

class SymbolicExecTest : public ::testing::Test {
protected:
  SymbolTable Symbols;
  TermTable Terms{Symbols};
  Symbol X = Terms.constant("x");
  Symbol Y = Terms.constant("y");
  Symbol T = Terms.constant("t");
  Symbol Nil = Terms.nil();

  /// All VCs of P must be valid according to SLP.
  void expectVerifies(const Program &P) {
    VcGenResult R = generateVCs(Terms, P);
    ASSERT_TRUE(R.ok()) << *R.Error;
    core::SlpProver Prover(Terms);
    for (const VC &V : R.VCs) {
      core::ProveResult PR = Prover.prove(V.E);
      EXPECT_EQ(PR.V, core::Verdict::Valid)
          << V.Name << ": " << sl::str(Terms, V.E);
    }
  }
};

} // namespace

TEST_F(SymbolicExecTest, StraightLineStore) {
  Program P{"p",
            {{}, {sl::HeapAtom::next(X, Y)}},
            {{}, {sl::HeapAtom::next(X, Nil)}},
            {store(X, Nil)}};
  VcGenResult R = generateVCs(Terms, P);
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.VCs.size(), 1u); // Only the postcondition.
  expectVerifies(P);
}

TEST_F(SymbolicExecTest, WrongPostconditionDetected) {
  Program P{"p",
            {{}, {sl::HeapAtom::next(X, Y)}},
            {{}, {sl::HeapAtom::next(X, Y)}}, // Store changed it to nil.
            {store(X, Nil)}};
  VcGenResult R = generateVCs(Terms, P);
  ASSERT_TRUE(R.ok());
  core::SlpProver Prover(Terms);
  core::ProveResult PR = Prover.prove(R.VCs[0].E);
  EXPECT_EQ(PR.V, core::Verdict::Invalid);
}

TEST_F(SymbolicExecTest, AssignRenamesProperly) {
  // x := x is a no-op semantically; the state must still entail the
  // unchanged postcondition.
  Program P{"p",
            {{}, {sl::HeapAtom::next(X, Y)}},
            {{}, {sl::HeapAtom::next(X, Y)}},
            {assign(X, X)}};
  expectVerifies(P);
}

TEST_F(SymbolicExecTest, LookupUnfoldsLsegAndEmitsSafetyVC) {
  Program P{"p",
            {{sl::PureAtom::ne(X, Nil)}, {sl::HeapAtom::lseg(X, Nil)}},
            {{}, {sl::HeapAtom::next(X, T), sl::HeapAtom::lseg(T, Nil)}},
            {lookup(T, X)}};
  VcGenResult R = generateVCs(Terms, P);
  ASSERT_TRUE(R.ok());
  // Safety VC (lseg nonempty) + postcondition.
  ASSERT_EQ(R.VCs.size(), 2u);
  EXPECT_NE(R.VCs[0].Name.find("safety"), std::string::npos);
  expectVerifies(P);
}

TEST_F(SymbolicExecTest, UnallocatedAccessIsAnError) {
  Program P{"p", {{}, {}}, {{}, {}}, {store(X, Nil)}};
  VcGenResult R = generateVCs(Terms, P);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error->find("unallocated"), std::string::npos);
}

TEST_F(SymbolicExecTest, NewAndDisposeRoundTrip) {
  Program P{"p",
            {{}, {}},
            {{}, {}},
            {makeCell(X), dispose(X)}};
  expectVerifies(P);
}

TEST_F(SymbolicExecTest, IfSplitsAndBothBranchesChecked) {
  // if (x = nil) then t := y else t := x; post: t != nil requires that
  // both y != nil and x != nil premises hold — with only y != nil in
  // the pre, the else branch needs x != nil from the guard.
  Program P{"p",
            {{sl::PureAtom::ne(Y, Nil)}, {}},
            {{sl::PureAtom::ne(T, Nil)}, {}},
            {ifElse(sl::PureAtom::eq(X, Nil), {assign(T, Y)},
                    {assign(T, X)})}};
  expectVerifies(P);
}

TEST_F(SymbolicExecTest, WhileEmitsEntryPreservationAndExit) {
  // while (x != nil) [lseg(x, nil)] { t := x->next; dispose(x); x := t }
  Program P{"p",
            {{}, {sl::HeapAtom::lseg(X, Nil)}},
            {{}, {}},
            {whileLoop(sl::PureAtom::ne(X, Nil),
                       {{}, {sl::HeapAtom::lseg(X, Nil)}},
                       {lookup(T, X), dispose(X), assign(X, T)})}};
  VcGenResult R = generateVCs(Terms, P);
  ASSERT_TRUE(R.ok());
  // entry + safety (unfold in body) + preservation + post.
  ASSERT_EQ(R.VCs.size(), 4u);
  expectVerifies(P);
}

TEST_F(SymbolicExecTest, WrongInvariantIsDetected) {
  // The invariant claims the list is *fully* intact while the loop
  // disposes cells: preservation must fail.
  Symbol Y2 = Terms.constant("y2");
  Program P{"bad_inv",
            {{}, {sl::HeapAtom::lseg(X, Nil), sl::HeapAtom::lseg(Y2, Nil)}},
            {{}, {sl::HeapAtom::lseg(Y2, Nil)}},
            {whileLoop(sl::PureAtom::ne(X, Nil),
                       // Wrong: claims next(y2, nil) although nothing
                       // pins y2's shape to a single cell.
                       {{}, {sl::HeapAtom::lseg(X, Nil),
                             sl::HeapAtom::next(Y2, Nil)}},
                       {lookup(T, X), dispose(X), assign(X, T)})}};
  VcGenResult R = generateVCs(Terms, P);
  ASSERT_TRUE(R.ok());
  core::SlpProver Prover(Terms);
  unsigned Failed = 0;
  for (const VC &V : R.VCs)
    if (Prover.prove(V.E).V != core::Verdict::Valid)
      ++Failed;
  EXPECT_GT(Failed, 0u) << "a wrong invariant must produce a failing VC";
}

TEST_F(SymbolicExecTest, WrongPostconditionAfterLoopDetected) {
  Program P{"bad_post",
            {{}, {sl::HeapAtom::lseg(X, Nil)}},
            // Claims the list survives although the loop disposed it.
            {{}, {sl::HeapAtom::next(X, Nil)}},
            {whileLoop(sl::PureAtom::ne(X, Nil),
                       {{}, {sl::HeapAtom::lseg(X, Nil)}},
                       {lookup(T, X), dispose(X), assign(X, T)})}};
  VcGenResult R = generateVCs(Terms, P);
  ASSERT_TRUE(R.ok());
  core::SlpProver Prover(Terms);
  core::ProveResult Last = Prover.prove(R.VCs.back().E);
  EXPECT_EQ(Last.V, core::Verdict::Invalid);
}

TEST_F(SymbolicExecTest, FreshNamesDoNotCollide) {
  Program P{"q",
            {{}, {sl::HeapAtom::lseg(X, Nil)}},
            {{}, {sl::HeapAtom::lseg(X, Nil)}},
            {makeCell(T), store(T, X), assign(X, T)}};
  VcGenResult R1 = generateVCs(Terms, P);
  VcGenResult R2 = generateVCs(Terms, P);
  ASSERT_TRUE(R1.ok());
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(R1.VCs.size(), R2.VCs.size());
}
