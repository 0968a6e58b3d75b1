//===- obs/Metrics.cpp - Metrics registry and histograms ----------------------===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <cstdio>

using namespace slp;
using namespace slp::obs;

unsigned detail::threadShard() {
  static std::atomic<unsigned> NextSlot{0};
  thread_local unsigned Slot =
      NextSlot.fetch_add(1, std::memory_order_relaxed) % NumShards;
  return Slot;
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot Out;
  Out.Buckets.assign(NumBuckets, 0);
  for (const Shard &S : Shards) {
    for (unsigned B = 0; B != NumBuckets; ++B) {
      uint64_t N = S.Buckets[B].load(std::memory_order_relaxed);
      Out.Buckets[B] += N;
      Out.Count += N;
    }
    Out.Sum += S.Sum.load(std::memory_order_relaxed);
    Out.Max = std::max(Out.Max, S.Max.load(std::memory_order_relaxed));
  }
  return Out;
}

void Histogram::resetForTest() {
  for (Shard &S : Shards) {
    for (unsigned B = 0; B != NumBuckets; ++B)
      S.Buckets[B].store(0, std::memory_order_relaxed);
    S.Sum.store(0, std::memory_order_relaxed);
    S.Max.store(0, std::memory_order_relaxed);
  }
}

double HistogramSnapshot::quantile(double Q) const {
  if (Count == 0)
    return 0;
  Q = std::min(std::max(Q, 0.0), 1.0);
  // Continuous 0-based rank; walk buckets until the cumulative count
  // covers it, then interpolate linearly within the bucket.
  double Rank = Q * static_cast<double>(Count - 1);
  uint64_t Cum = 0;
  for (unsigned B = 0; B != Buckets.size(); ++B) {
    uint64_t N = Buckets[B];
    if (!N)
      continue;
    if (Rank < static_cast<double>(Cum + N) ||
        Cum + N == Count /* top non-empty bucket */) {
      uint64_t Lo = Histogram::bucketLowerBound(B);
      // The observed max caps the top bucket, so a single outlier does
      // not smear quantiles across the whole bucket width.
      uint64_t Hi = std::min(Histogram::bucketUpperBound(B), Max + 1);
      if (Hi <= Lo + 1)
        return static_cast<double>(Lo); // Width-1 bucket: exact.
      double Frac = (Rank - static_cast<double>(Cum)) / N;
      Frac = std::min(std::max(Frac, 0.0), 1.0);
      return static_cast<double>(Lo) + static_cast<double>(Hi - Lo) * Frac;
    }
    Cum += N;
  }
  return static_cast<double>(Max);
}

HistogramSnapshot HistogramSnapshot::minus(
    const HistogramSnapshot &Earlier) const {
  HistogramSnapshot Out;
  Out.Count = Count - Earlier.Count;
  Out.Sum = Sum - Earlier.Sum;
  Out.Max = Max; // Upper bound on the delta's samples (see header).
  Out.Buckets.assign(Buckets.size(), 0);
  for (size_t B = 0; B != Buckets.size(); ++B)
    Out.Buckets[B] =
        Buckets[B] - (B < Earlier.Buckets.size() ? Earlier.Buckets[B] : 0);
  return Out;
}

//===----------------------------------------------------------------------===//
// MetricsSnapshot
//===----------------------------------------------------------------------===//

const uint64_t *MetricsSnapshot::counter(std::string_view Name) const {
  for (const auto &[N, V] : Counters)
    if (N == Name)
      return &V;
  return nullptr;
}

const int64_t *MetricsSnapshot::gauge(std::string_view Name) const {
  for (const auto &[N, V] : Gauges)
    if (N == Name)
      return &V;
  return nullptr;
}

const HistogramSnapshot *
MetricsSnapshot::histogram(std::string_view Name) const {
  for (const auto &[N, V] : Histograms)
    if (N == Name)
      return &V;
  return nullptr;
}

void obs::appendJsonEscaped(std::string &Out, std::string_view Text) {
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

namespace {

void appendKey(std::string &Out, std::string_view Name) {
  Out += '"';
  appendJsonEscaped(Out, Name);
  Out += "\": ";
}

void appendDouble(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  Out += Buf;
}

} // namespace

std::string MetricsSnapshot::json() const {
  std::string Out = "{\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, V] : Counters) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    appendKey(Out, Name);
    Out += std::to_string(V);
  }
  Out += "\n  },\n  \"gauges\": {";
  First = true;
  for (const auto &[Name, V] : Gauges) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    appendKey(Out, Name);
    Out += std::to_string(V);
  }
  Out += "\n  },\n  \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    Out += First ? "\n    " : ",\n    ";
    First = false;
    appendKey(Out, Name);
    Out += "{\"count\": " + std::to_string(H.Count);
    Out += ", \"sum\": " + std::to_string(H.Sum);
    Out += ", \"max\": " + std::to_string(H.Max);
    Out += ", \"mean\": ";
    appendDouble(Out, H.mean());
    Out += ", \"p50\": ";
    appendDouble(Out, H.quantile(0.50));
    Out += ", \"p90\": ";
    appendDouble(Out, H.quantile(0.90));
    Out += ", \"p99\": ";
    appendDouble(Out, H.quantile(0.99));
    Out += "}";
  }
  Out += "\n  }\n}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry R;
  return R;
}

namespace {

/// The value named \p Name in \p Vec, appended as 0 on first use;
/// the caller holds the registry mutex. The search starts at \p Cursor,
/// one past the name found last, and wraps around: a caller that walks
/// its names in registration order, as the engine's per-run mirror
/// does, matches on the first compare.
template <typename T>
T &slot(std::vector<std::pair<std::string, T>> &Vec, size_t &Cursor,
        std::string_view Name) {
  for (size_t K = 0, I = Cursor; K != Vec.size(); ++K, ++I) {
    if (I >= Vec.size())
      I = 0;
    if (Vec[I].first == Name) {
      Cursor = I + 1;
      return Vec[I].second;
    }
  }
  Cursor = Vec.size() + 1;
  return Vec.emplace_back(std::string(Name), T()).second;
}

} // namespace

void MetricsRegistry::add(std::string_view Name, uint64_t Delta) {
  std::lock_guard<std::mutex> Lock(M);
  slot(Counters, CounterCursor, Name) += Delta;
}

void MetricsRegistry::set(std::string_view Name, int64_t Value) {
  std::lock_guard<std::mutex> Lock(M);
  slot(Gauges, GaugeCursor, Name) = Value;
}

Histogram &MetricsRegistry::histogram(std::string_view Name) {
  std::lock_guard<std::mutex> Lock(M);
  std::unique_ptr<Histogram> &H = slot(Histograms, HistogramCursor, Name);
  if (!H)
    H = std::make_unique<Histogram>();
  return *H;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  MetricsSnapshot Out;
  Out.Counters = Counters;
  Out.Gauges = Gauges;
  Out.Histograms.reserve(Histograms.size());
  for (const auto &[Name, H] : Histograms)
    Out.Histograms.emplace_back(Name, H->snapshot());
  return Out;
}

void MetricsRegistry::resetForTest() {
  std::lock_guard<std::mutex> Lock(M);
  for (auto &[Name, V] : Counters)
    V = 0;
  for (auto &[Name, V] : Gauges)
    V = 0;
  for (auto &[Name, H] : Histograms)
    H->resetForTest();
}

bool obs::writeMetricsJson(const std::string &Path) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::string Json = metrics().snapshot().json();
  bool Ok = std::fwrite(Json.data(), 1, Json.size(), Out) == Json.size();
  return std::fclose(Out) == 0 && Ok;
}
