//===- symexec/Corpus.cpp - 18 annotated list programs ------------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "symexec/Corpus.h"

using namespace slp;
using namespace slp::symexec;

namespace {

/// Convenience wrapper binding frequently used constants and atom
/// constructors to one TermTable.
struct Ctx {
  TermTable &T;

  Symbol operator()(const char *Name) { return T.constant(Name); }
  Symbol nil() { return T.nil(); }

  static sl::PureAtom eq(Symbol A, Symbol B) {
    return sl::PureAtom::eq(A, B);
  }
  static sl::PureAtom ne(Symbol A, Symbol B) {
    return sl::PureAtom::ne(A, B);
  }
  static sl::HeapAtom next(Symbol A, Symbol B) {
    return sl::HeapAtom::next(A, B);
  }
  static sl::HeapAtom lseg(Symbol A, Symbol B) {
    return sl::HeapAtom::lseg(A, B);
  }
  static sl::Assertion assertion(std::vector<sl::PureAtom> Pure,
                                 sl::SpatialFormula Spatial) {
    return {std::move(Pure), std::move(Spatial)};
  }
};

} // namespace

std::vector<Program> symexec::corpus(TermTable &Terms) {
  Ctx C{Terms};
  Symbol Nil = C.nil();
  Symbol X = C("x"), Y = C("y"), Z = C("z"), A = C("a"), B = C("b");
  Symbol Cur = C("c"), Tmp = C("t"), Tmp2 = C("s"), N = C("n"), M = C("m"),
         R = C("r");

  std::vector<Program> Out;

  // 1. traverse: walk a nil-terminated list to its end.
  Out.push_back(
      {"traverse",
       C.assertion({}, {C.lseg(X, Nil)}),
       C.assertion({}, {C.lseg(X, Nil)}),
       {assign(Cur, X),
        whileLoop(C.ne(Cur, Nil),
                  C.assertion({}, {C.lseg(X, Cur), C.lseg(Cur, Nil)}),
                  {lookup(Tmp, Cur), assign(Cur, Tmp)})}});

  // 2. traverse_seg: walk a segment up to a sentinel cell.
  Out.push_back(
      {"traverse_seg",
       C.assertion({}, {C.lseg(X, Y), C.next(Y, Nil)}),
       C.assertion({}, {C.lseg(X, Y), C.next(Y, Nil)}),
       {assign(Cur, X),
        whileLoop(C.ne(Cur, Y),
                  C.assertion({}, {C.lseg(X, Cur), C.lseg(Cur, Y),
                                   C.next(Y, Nil)}),
                  {lookup(Tmp, Cur), assign(Cur, Tmp)})}});

  // 3. find_last: position c on the last cell of a nonempty list.
  Out.push_back(
      {"find_last",
       C.assertion({C.ne(X, Nil)}, {C.lseg(X, Nil)}),
       C.assertion({}, {C.lseg(X, Cur), C.next(Cur, Nil)}),
       {assign(Cur, X), lookup(Tmp, Cur),
        whileLoop(C.ne(Tmp, Nil),
                  C.assertion({}, {C.lseg(X, Cur), C.next(Cur, Tmp),
                                   C.lseg(Tmp, Nil)}),
                  {assign(Cur, Tmp), lookup(Tmp, Cur)})}});

  // 4. append: destructively append list y to nonempty list x.
  Out.push_back(
      {"append",
       C.assertion({C.ne(X, Nil)}, {C.lseg(X, Nil), C.lseg(Y, Nil)}),
       C.assertion({}, {C.lseg(X, Nil)}),
       {assign(Cur, X), lookup(Tmp, Cur),
        whileLoop(C.ne(Tmp, Nil),
                  C.assertion({}, {C.lseg(X, Cur), C.next(Cur, Tmp),
                                   C.lseg(Tmp, Nil), C.lseg(Y, Nil)}),
                  {assign(Cur, Tmp), lookup(Tmp, Cur)}),
        store(Cur, Y)}});

  // 5. reverse: in-place list reversal.
  Out.push_back(
      {"reverse",
       C.assertion({}, {C.lseg(X, Nil)}),
       C.assertion({}, {C.lseg(R, Nil)}),
       {assign(R, Nil),
        whileLoop(C.ne(X, Nil),
                  C.assertion({}, {C.lseg(X, Nil), C.lseg(R, Nil)}),
                  {lookup(Tmp, X), store(X, R), assign(R, X),
                   assign(X, Tmp)})}});

  // 6. dispose_all: free every cell of a list.
  Out.push_back(
      {"dispose_all",
       C.assertion({}, {C.lseg(X, Nil)}),
       C.assertion({}, {}),
       {whileLoop(C.ne(X, Nil), C.assertion({}, {C.lseg(X, Nil)}),
                  {lookup(Tmp, X), dispose(X), assign(X, Tmp)})}});

  // 7. copy: build a fresh list while traversing (lengths untracked).
  Out.push_back(
      {"copy",
       C.assertion({}, {C.lseg(X, Nil)}),
       C.assertion({}, {C.lseg(X, Nil), C.lseg(Y, Nil)}),
       {assign(Y, Nil), assign(Cur, X),
        whileLoop(C.ne(Cur, Nil),
                  C.assertion({}, {C.lseg(X, Cur), C.lseg(Cur, Nil),
                                   C.lseg(Y, Nil)}),
                  {makeCell(N), store(N, Y), assign(Y, N), lookup(Tmp, Cur),
                   assign(Cur, Tmp)})}});

  // 8. insert_front: cons a fresh cell onto a list.
  Out.push_back(
      {"insert_front",
       C.assertion({}, {C.lseg(X, Nil)}),
       C.assertion({}, {C.lseg(X, Nil)}),
       {makeCell(N), store(N, X), assign(X, N)}});

  // 9. delete_first: pop the head of a nonempty list.
  Out.push_back(
      {"delete_first",
       C.assertion({C.ne(X, Nil)}, {C.lseg(X, Nil)}),
       C.assertion({}, {C.lseg(X, Nil)}),
       {lookup(Tmp, X), dispose(X), assign(X, Tmp)}});

  // 10. advance_two: move a cursor up to two cells forward.
  Out.push_back(
      {"advance_two",
       C.assertion({}, {C.lseg(X, Nil)}),
       C.assertion({}, {C.lseg(X, Cur), C.lseg(Cur, Nil)}),
       {assign(Cur, X),
        ifElse(C.ne(Cur, Nil),
               {lookup(Tmp, Cur), assign(Cur, Tmp),
                ifElse(C.ne(Cur, Nil),
                       {lookup(Tmp2, Cur), assign(Cur, Tmp2)})})}});

  // 11. swap_tails: exchange the successors of two distinct cells.
  Out.push_back(
      {"swap_tails",
       C.assertion({}, {C.next(X, A), C.next(Y, B)}),
       C.assertion({}, {C.next(X, B), C.next(Y, A)}),
       {lookup(Tmp, X), lookup(Tmp2, Y), store(X, Tmp2), store(Y, Tmp)}});

  // 12. drop_tail: detach (and leak) the tail of a cell.
  Out.push_back(
      {"drop_tail",
       C.assertion({}, {C.next(X, Y), C.lseg(Y, Nil)}),
       C.assertion({}, {C.next(X, Nil), C.lseg(Y, Nil)}),
       {store(X, Nil)}});

  // 13. dispose_two: free a two-cell list.
  Out.push_back(
      {"dispose_two",
       C.assertion({}, {C.next(X, Y), C.next(Y, Nil)}),
       C.assertion({}, {}),
       {lookup(Tmp, X), dispose(X), dispose(Tmp)}});

  // 14. build_two: allocate and link a two-cell list from nothing.
  Out.push_back(
      {"build_two",
       C.assertion({}, {}),
       C.assertion({}, {C.lseg(X, Nil)}),
       {makeCell(X), makeCell(Y), store(X, Y), store(Y, Nil)}});

  // 15. null_out: overwrite a successor with nil.
  Out.push_back(
      {"null_out",
       C.assertion({}, {C.next(X, Y)}),
       C.assertion({}, {C.next(X, Nil)}),
       {store(X, Nil)}});

  // 16. self_loop: make a cell point at itself.
  Out.push_back(
      {"self_loop",
       C.assertion({}, {C.next(X, Y)}),
       C.assertion({}, {C.next(X, X)}),
       {store(X, X)}});

  // 17. delete_second: splice out the second cell of a list.
  Out.push_back(
      {"delete_second",
       C.assertion({}, {C.next(X, Y), C.next(Y, Z), C.lseg(Z, Nil)}),
       C.assertion({}, {C.next(X, Z), C.lseg(Z, Nil)}),
       {lookup(Tmp, X), lookup(Tmp2, Tmp), store(X, Tmp2), dispose(Tmp)}});

  // 18. prepend_two: cons two fresh cells onto a list.
  Out.push_back(
      {"prepend_two",
       C.assertion({}, {C.lseg(X, Nil)}),
       C.assertion({}, {C.lseg(X, Nil)}),
       {makeCell(N), store(N, X), makeCell(M), store(M, N), assign(X, M)}});

  return Out;
}
