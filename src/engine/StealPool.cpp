//===- engine/StealPool.cpp - Work-stealing index distributor -------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "engine/StealPool.h"

#include <cassert>

using namespace slp;
using namespace slp::engine;

StealPool::StealPool(size_t Size, unsigned NumWorkers)
    : Remaining(Size), Size(Size) {
  assert(NumWorkers != 0 && "a pool needs at least one worker");
  Locals.reserve(NumWorkers);
  for (unsigned W = 0; W != NumWorkers; ++W) {
    auto L = std::make_unique<Local>();
    // Contiguous block [Lo, Hi): workers walk the corpus in input
    // order within their share, which keeps the task vector's pages
    // warm and approximates the fetch-add queue's locality.
    size_t Lo = Size * W / NumWorkers;
    size_t Hi = Size * (W + 1) / NumWorkers;
    L->Items.reserve(Hi - Lo);
    for (size_t I = Lo; I != Hi; ++I)
      L->Items.push_back(I);
    Locals.push_back(std::move(L));
  }
}

bool StealPool::pop(unsigned Worker, size_t &Index) {
  Local &Self = *Locals[Worker];
  for (;;) {
    {
      std::lock_guard<std::mutex> G(Self.M);
      if (Self.Head != Self.Items.size()) {
        Index = Self.Items[Self.Head++];
        ++Self.Stats.Executed;
        Remaining.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      // Drained: reset so stolen loot lands in a compact vector.
      Self.Items.clear();
      Self.Head = 0;
    }
    // Every unclaimed index sits in some deque (or in a thief's hand
    // for the instant between unhooking loot and re-hooking it), so a
    // nonzero count means a scan can find loot, possibly one round
    // late. A fruitless scan re-checks the count; the spin is bounded
    // because whoever holds the loot either executes it (count drops)
    // or re-hooks it (the next scan sees it).
    if (Remaining.load(std::memory_order_relaxed) == 0)
      return false;
    stealInto(Worker);
  }
}

bool StealPool::stealInto(unsigned Worker) {
  Local &Self = *Locals[Worker];
  const unsigned N = numWorkers();
  for (unsigned Off = 1; Off != N; ++Off) {
    Local &Victim = *Locals[(Worker + Off) % N];
    ++Self.Stats.StealAttempts;
    std::vector<size_t> Loot;
    {
      std::lock_guard<std::mutex> G(Victim.M);
      size_t Avail = Victim.Items.size() - Victim.Head;
      if (Avail == 0)
        continue;
      // Half from the back: the victim keeps the front of its block
      // (the items it is about to reach anyway), the thief takes the
      // far half, so both sides keep walking contiguous index runs.
      size_t Take = (Avail + 1) / 2;
      Loot.assign(Victim.Items.end() - static_cast<ptrdiff_t>(Take),
                  Victim.Items.end());
      Victim.Items.resize(Victim.Items.size() - Take);
    }
    ++Self.Stats.Steals;
    std::lock_guard<std::mutex> G(Self.M);
    Self.Items.insert(Self.Items.end(), Loot.begin(), Loot.end());
    return true;
  }
  return false;
}

StealStats StealPool::totals() const {
  StealStats T;
  for (const std::unique_ptr<Local> &L : Locals)
    T += L->Stats;
  return T;
}
