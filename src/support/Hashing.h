//===- support/Hashing.h - Hash combinators ---------------------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small FNV-1a based hashing helpers used by hash maps.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_SUPPORT_HASHING_H
#define SLP_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace slp {

/// 64-bit FNV-1a over a byte range.
inline uint64_t hashBytes(const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  uint64_t H = 1469598103934665603ull;
  for (size_t I = 0; I != Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

inline uint64_t hashString(std::string_view S) {
  return hashBytes(S.data(), S.size());
}

/// Mixes a new 64-bit value into an accumulated hash.
inline uint64_t hashCombine(uint64_t Seed, uint64_t V) {
  // Boost-style combiner with a 64-bit golden-ratio constant.
  Seed ^= V + 0x9e3779b97f4a7c15ull + (Seed << 12) + (Seed >> 4);
  return Seed;
}

/// Finalizer from SplitMix64; useful to de-correlate small integers.
inline uint64_t hashValue(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

} // namespace slp

#endif // SLP_SUPPORT_HASHING_H
