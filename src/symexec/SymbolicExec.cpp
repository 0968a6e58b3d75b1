//===- symexec/SymbolicExec.cpp - VC generation -------------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "symexec/SymbolicExec.h"

#include "support/UnionFind.h"

#include <set>
#include <string>

using namespace slp;
using namespace slp::symexec;

namespace {

/// Stateful worker for one program.
class Executor {
public:
  Executor(TermTable &Terms, const Program &P) : Terms(Terms), P(P) {}

  VcGenResult run() {
    std::vector<sl::Assertion> Final = execBlock(P.Body, {P.Pre});
    for (const sl::Assertion &S : Final)
      emitVC("postcondition", S, P.Post);
    return std::move(Result);
  }

private:
  using State = sl::Assertion;

  Symbol fresh() {
    return Terms.constant("_" + P.Name + "_" + std::to_string(++FreshCount));
  }

  static Symbol replace(Symbol T, Symbol From, Symbol To) {
    return T == From ? To : T;
  }

  static State subst(const State &S, Symbol From, Symbol To) {
    State Out;
    for (const sl::PureAtom &A : S.Pure)
      Out.Pure.push_back({replace(A.Lhs, From, To), replace(A.Rhs, From, To),
                          A.Negated});
    for (const sl::HeapAtom &A : S.Spatial)
      Out.Spatial.push_back(
          {A.Kind, replace(A.Addr, From, To), replace(A.Val, From, To)});
    return Out;
  }

  void emitVC(const std::string &What, const State &S,
              const sl::Assertion &Rhs) {
    VC V;
    V.Name = P.Name + ": " + What + " #" + std::to_string(Result.VCs.size());
    V.E.Lhs = S;
    V.E.Rhs = Rhs;
    Result.VCs.push_back(std::move(V));
  }

  void fail(const std::string &Message) {
    if (!Result.Error)
      Result.Error = P.Name + ": " + Message;
  }

  /// Materializes a next-cell at \p Addr (modulo the equalities of
  /// S.Pure), unfolding an lseg head if needed. Emits the memory
  /// safety VC for the unfold. Returns the index of the next-atom.
  std::optional<size_t> rearrange(State &S, Symbol Addr) {
    UnionFind UF;
    for (const sl::PureAtom &A : S.Pure)
      if (!A.Negated)
        UF.unite(A.Lhs.id(), A.Rhs.id());
    uint32_t Rep = UF.find(Addr.id());

    for (size_t I = 0; I != S.Spatial.size(); ++I) {
      const sl::HeapAtom &A = S.Spatial[I];
      if (UF.find(A.Addr.id()) != Rep)
        continue;
      if (A.isNext())
        return I;
      // Unfold the lseg head: requires (and emits as a VC) that the
      // segment is nonempty.
      sl::Assertion Safety;
      Safety.Pure.push_back(sl::PureAtom::ne(A.Addr, A.Val));
      Safety.Spatial = S.Spatial;
      emitVC("memory safety (lseg nonempty)", S, Safety);

      Symbol Mid = fresh();
      Symbol End = A.Val;
      Symbol Head = A.Addr;
      S.Spatial[I] = sl::HeapAtom::next(Head, Mid);
      S.Spatial.push_back(sl::HeapAtom::lseg(Mid, End));
      return I;
    }
    fail("heap access at unallocated address " + Terms.str(Addr));
    return std::nullopt;
  }

  std::vector<State> execBlock(const Block &B, std::vector<State> States) {
    for (const Stmt &S : B) {
      if (Result.Error)
        return {};
      States = execStmt(S, std::move(States));
    }
    return States;
  }

  std::vector<State> execStmt(const Stmt &St, std::vector<State> States) {
    std::vector<State> Out;
    switch (St.K) {
    case Stmt::Kind::Assign:
      for (State &S : States) {
        Symbol Old = fresh();
        Symbol Src = replace(St.Src, St.Dst, Old);
        State S2 = subst(S, St.Dst, Old);
        S2.Pure.push_back(sl::PureAtom::eq(St.Dst, Src));
        Out.push_back(std::move(S2));
      }
      return Out;

    case Stmt::Kind::Lookup:
      for (State &S : States) {
        auto Idx = rearrange(S, St.Src);
        if (!Idx)
          return {};
        Symbol Val = S.Spatial[*Idx].Val;
        Symbol Old = fresh();
        Symbol NewVal = replace(Val, St.Dst, Old);
        State S2 = subst(S, St.Dst, Old);
        S2.Pure.push_back(sl::PureAtom::eq(St.Dst, NewVal));
        Out.push_back(std::move(S2));
      }
      return Out;

    case Stmt::Kind::Store:
      for (State &S : States) {
        auto Idx = rearrange(S, St.Dst);
        if (!Idx)
          return {};
        S.Spatial[*Idx].Val = St.Src;
        Out.push_back(std::move(S));
      }
      return Out;

    case Stmt::Kind::New:
      for (State &S : States) {
        Symbol Old = fresh();
        State S2 = subst(S, St.Dst, Old);
        S2.Spatial.push_back(sl::HeapAtom::next(St.Dst, fresh()));
        Out.push_back(std::move(S2));
      }
      return Out;

    case Stmt::Kind::Dispose:
      for (State &S : States) {
        auto Idx = rearrange(S, St.Dst);
        if (!Idx)
          return {};
        S.Spatial.erase(S.Spatial.begin() + *Idx);
        Out.push_back(std::move(S));
      }
      return Out;

    case Stmt::Kind::If: {
      std::vector<State> ThenIn, ElseIn;
      for (State &S : States) {
        State ST = S;
        ST.Pure.push_back(St.Cond);
        ThenIn.push_back(std::move(ST));
        State SE = std::move(S);
        sl::PureAtom NegCond = St.Cond;
        NegCond.Negated = !NegCond.Negated;
        SE.Pure.push_back(NegCond);
        ElseIn.push_back(std::move(SE));
      }
      std::vector<State> A = execBlock(St.Then, std::move(ThenIn));
      std::vector<State> B = execBlock(St.Else, std::move(ElseIn));
      A.insert(A.end(), std::make_move_iterator(B.begin()),
               std::make_move_iterator(B.end()));
      return A;
    }

    case Stmt::Kind::While: {
      // Entry: every incoming state must establish the invariant.
      for (const State &S : States)
        emitVC("loop invariant on entry", S, St.Invariant);
      // Preservation: one body execution from the invariant.
      State Inside = St.Invariant;
      Inside.Pure.push_back(St.Cond);
      for (const State &S : execBlock(St.Then, {std::move(Inside)}))
        emitVC("loop invariant preserved", S, St.Invariant);
      // Afterwards only the invariant and the negated guard are known.
      State After = St.Invariant;
      sl::PureAtom NegCond = St.Cond;
      NegCond.Negated = !NegCond.Negated;
      After.Pure.push_back(NegCond);
      return {std::move(After)};
    }
    }
    return Out;
  }

  TermTable &Terms;
  const Program &P;
  VcGenResult Result;
  unsigned FreshCount = 0;
};

} // namespace

VcGenResult symexec::generateVCs(TermTable &Terms, const Program &P) {
  return Executor(Terms, P).run();
}
