//===- support/Arena.h - Bump-pointer allocation ----------------*- C++ -*-===//
//
// Part of the SLP project, an implementation of the PLDI'11 paper
// "Separation Logic + Superposition Calculus = Heap Theorem Prover".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple bump-pointer arena used for terms, clauses and spatial
/// atoms. Objects allocated here are never individually freed; the
/// whole arena is released at once, or rewound to a previously taken
/// Mark (strictly LIFO). Slabs cut loose by a rewind are retained on a
/// free list and handed out again by later allocations, so a session
/// that repeatedly rewinds to a checkpoint stops touching the system
/// allocator once its high-water mark is reached. Trivially-
/// destructible payloads only (asserted per allocation site).
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPPORT_ARENA_H
#define SLP_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace slp {

/// Bump-pointer arena. Allocation is O(1); deallocation happens only
/// when the arena is destroyed, reset(), or rewound past a Mark.
class Arena {
public:
  explicit Arena(size_t SlabBytes = DefaultSlabBytes)
      : SlabBytes(SlabBytes) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// A checkpoint of the arena state; see mark()/rewind().
  struct Mark {
    size_t Slabs = 0;
    uintptr_t Cur = 0;
    uintptr_t End = 0;
    size_t Bytes = 0;
  };

  /// Allocates \p Bytes with the given alignment. Never returns null.
  void *allocate(size_t Bytes, size_t Align) {
    assert(Align != 0 && (Align & (Align - 1)) == 0 &&
           "alignment must be a power of two");
    uintptr_t P = (Cur + Align - 1) & ~(uintptr_t)(Align - 1);
    if (P + Bytes > End) {
      newSlab(Bytes + Align);
      P = (Cur + Align - 1) & ~(uintptr_t)(Align - 1);
    }
    Cur = P + Bytes;
    BytesUsed += Bytes;
    return reinterpret_cast<void *>(P);
  }

  /// Allocates and constructs a single T. T must be trivially
  /// destructible since arenas never run destructors.
  template <typename T, typename... ArgTs> T *create(ArgTs &&...Args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects must not require destructors");
    void *Mem = allocate(sizeof(T), alignof(T));
    return new (Mem) T(std::forward<ArgTs>(Args)...);
  }

  /// Allocates an uninitialized array of \p N objects of type T.
  template <typename T> T *allocateArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects must not require destructors");
    if (N == 0)
      return nullptr;
    return static_cast<T *>(allocate(sizeof(T) * N, alignof(T)));
  }

  /// Copies the range [Begin, Begin+N) into the arena.
  template <typename T> T *copyArray(const T *Begin, size_t N) {
    T *Mem = allocateArray<T>(N);
    for (size_t I = 0; I != N; ++I)
      new (Mem + I) T(Begin[I]);
    return Mem;
  }

  /// Captures the current allocation frontier. Later allocations can
  /// be released with rewind(); marks must be consumed LIFO.
  Mark mark() const { return {Slabs.size(), Cur, End, BytesUsed}; }

  /// Releases everything allocated after \p M was taken. Pointers to
  /// such allocations become dangling. Slabs cut loose are parked on
  /// the free list for reuse, not returned to the system allocator.
  void rewind(const Mark &M) {
    assert(M.Slabs <= Slabs.size() && "marks must be rewound LIFO");
    while (Slabs.size() > M.Slabs) {
      FreeSlabs.push_back(std::move(Slabs.back()));
      Slabs.pop_back();
    }
    Cur = M.Cur;
    End = M.End;
    BytesUsed = M.Bytes;
  }

  /// Releases all slabs, including retained ones. Pointers into the
  /// arena become dangling.
  void reset() {
    Slabs.clear();
    FreeSlabs.clear();
    Cur = End = 0;
    BytesUsed = 0;
  }

  /// Total payload bytes handed out (excludes alignment padding).
  size_t bytesAllocated() const { return BytesUsed; }

  /// Number of backing slabs currently in use (excludes the free list).
  size_t numSlabs() const { return Slabs.size(); }

  /// Slabs currently parked for reuse by a past rewind().
  size_t numFreeSlabs() const { return FreeSlabs.size(); }

  /// Times a slab was recycled from the free list instead of being
  /// requested from the system allocator.
  uint64_t slabsReused() const { return SlabsRecycled; }

private:
  static constexpr size_t DefaultSlabBytes = 64 * 1024;

  struct Slab {
    std::unique_ptr<char[]> Mem;
    size_t Size = 0;
  };

  void newSlab(size_t MinBytes) {
    // Prefer a retained slab big enough for the request (scan from the
    // back: the most recently parked slab is the most likely to be
    // cache-warm). The free list is small — it only ever holds slabs
    // this arena itself allocated — so a linear scan is fine.
    for (size_t I = FreeSlabs.size(); I-- > 0;) {
      if (FreeSlabs[I].Size < MinBytes)
        continue;
      Slab S = std::move(FreeSlabs[I]);
      FreeSlabs.erase(FreeSlabs.begin() + static_cast<ptrdiff_t>(I));
      Cur = reinterpret_cast<uintptr_t>(S.Mem.get());
      End = Cur + S.Size;
      Slabs.push_back(std::move(S));
      ++SlabsRecycled;
      return;
    }
    size_t Size = SlabBytes;
    while (Size < MinBytes)
      Size *= 2;
    Slabs.push_back({std::make_unique<char[]>(Size), Size});
    Cur = reinterpret_cast<uintptr_t>(Slabs.back().Mem.get());
    End = Cur + Size;
  }

  size_t SlabBytes;
  std::vector<Slab> Slabs;
  std::vector<Slab> FreeSlabs;
  uintptr_t Cur = 0;
  uintptr_t End = 0;
  size_t BytesUsed = 0;
  uint64_t SlabsRecycled = 0;
};

} // namespace slp

#endif // SLP_SUPPORT_ARENA_H
