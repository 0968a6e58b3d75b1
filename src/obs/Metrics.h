//===- obs/Metrics.h - Metrics registry and histograms ----------*- C++ -*-===//
//
// Part of the SLP project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry substrate: a process-wide MetricsRegistry of named
/// counters, gauges, and log-bucketed latency histograms, rendered by
/// snapshot() into the MetricsSnapshot behind `--metrics-json=`.
/// Counters and gauges are plain values that the owner of a per-run
/// account (engine::BatchStats, the fuzz campaign's report, slpgen's
/// instance count) hands over once, at the end of its run: add() and
/// set() take the registry mutex, so nothing per query calls them.
/// Latency histograms are the one metric recorded per query from every
/// worker; a histogram keeps one cache-line shard per thread slot and
/// costs two relaxed atomic adds per sample.
///
/// Layering: obs sits at the very bottom of the stack (std only), so
/// support/, superposition/, engine/, and the tools can all record
/// into it.
///
//===----------------------------------------------------------------------===//

#ifndef SLP_OBS_METRICS_H
#define SLP_OBS_METRICS_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace slp {
namespace obs {

namespace detail {

/// Number of independent histogram shards. Each thread hashes to one
/// slot, so concurrent records rarely share a cache line; snapshot
/// sums all of them.
constexpr unsigned NumShards = 8;

/// The calling thread's shard slot (assigned round-robin on first
/// use, stable for the thread's lifetime).
unsigned threadShard();

} // namespace detail

/// Merged, immutable view of one histogram: dense bucket counts plus
/// count/sum/max, from which quantiles are interpolated. Also the
/// subtraction domain — minus() yields the histogram of the samples
/// recorded between two snapshots (bench harnesses use this for
/// per-row percentiles).
struct HistogramSnapshot {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  /// Largest recorded value. After minus() this is the minuend's max —
  /// an upper bound on the delta's samples, used only to clamp
  /// interpolation in the top bucket.
  uint64_t Max = 0;
  std::vector<uint64_t> Buckets; ///< Dense, Histogram::NumBuckets long.

  /// Quantile \p Q in [0, 1] by linear interpolation inside the
  /// containing log bucket (exact for the width-1 buckets below 8).
  /// 0 when empty.
  double quantile(double Q) const;

  double mean() const { return Count ? static_cast<double>(Sum) / Count : 0; }

  /// Bucket-wise difference this - \p Earlier (samples recorded since
  /// \p Earlier was taken). Both snapshots must be of the same
  /// histogram, \p Earlier taken first.
  HistogramSnapshot minus(const HistogramSnapshot &Earlier) const;
};

/// Log-bucketed histogram of non-negative integer samples (latencies
/// in nanoseconds, sizes, fuel). Buckets: exact below 8, then four
/// buckets per power of two (≤ 25% bucket width, tightened by
/// in-bucket interpolation at snapshot time). record() is two relaxed
/// fetch-adds and a relaxed max on the thread's shard.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 252;

  void record(uint64_t V) {
    Shard &S = Shards[detail::threadShard()];
    S.Buckets[bucketIndex(V)].fetch_add(1, std::memory_order_relaxed);
    S.Sum.fetch_add(V, std::memory_order_relaxed);
    uint64_t M = S.Max.load(std::memory_order_relaxed);
    while (V > M &&
           !S.Max.compare_exchange_weak(M, V, std::memory_order_relaxed)) {
    }
  }

  /// The bucket \p V falls into: V itself below 8, then
  /// octave(V)*4 + top-3-bits(V).
  static unsigned bucketIndex(uint64_t V) {
    if (V < 8)
      return static_cast<unsigned>(V);
    unsigned Octave = static_cast<unsigned>(std::bit_width(V)) - 3;
    return Octave * 4 + static_cast<unsigned>(V >> Octave);
  }

  /// Smallest value mapping to bucket \p Idx (inverse of bucketIndex
  /// on bucket boundaries).
  static uint64_t bucketLowerBound(unsigned Idx) {
    if (Idx < 8)
      return Idx;
    unsigned Octave = Idx / 4 - 1;
    return static_cast<uint64_t>(Idx - Octave * 4) << Octave;
  }

  /// One past the largest value mapping to bucket \p Idx.
  static uint64_t bucketUpperBound(unsigned Idx) {
    return Idx + 1 < NumBuckets ? bucketLowerBound(Idx + 1) : ~0ull;
  }

  HistogramSnapshot snapshot() const;

  void resetForTest();

private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> Buckets[NumBuckets] = {};
    std::atomic<uint64_t> Sum{0};
    std::atomic<uint64_t> Max{0};
  };
  Shard Shards[detail::NumShards];
};

/// Point-in-time view of every registered metric, in registration
/// order.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, int64_t>> Gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> Histograms;

  /// Named lookups; null when the metric was never registered.
  const uint64_t *counter(std::string_view Name) const;
  const int64_t *gauge(std::string_view Name) const;
  const HistogramSnapshot *histogram(std::string_view Name) const;

  /// Counter value, defaulting to 0 when absent.
  uint64_t counterOr0(std::string_view Name) const {
    const uint64_t *V = counter(Name);
    return V ? *V : 0;
  }

  /// Machine-readable rendering: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, max, mean, p50, p90, p99}}}.
  /// This is the `--metrics-json=` payload.
  std::string json() const;
};

/// Registry of named metrics. A counter or gauge is registered by its
/// first add() or set(); a histogram is created on first lookup and
/// never moves or dies, so callers cache the reference and record
/// lock-free. Every registry call takes the registry mutex. Names are
/// dot-separated lowercase identifiers (see docs/observability.md for
/// the catalogue).
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// The process-wide registry the tools and engine record into.
  static MetricsRegistry &global();

  /// Adds \p Delta to the counter \p Name.
  void add(std::string_view Name, uint64_t Delta);
  /// Sets the gauge \p Name to \p Value (last writer wins).
  void set(std::string_view Name, int64_t Value);
  Histogram &histogram(std::string_view Name);

  MetricsSnapshot snapshot() const;

  /// Zeroes every registered value (names and histogram handles stay).
  /// Tests only: live readers may observe torn partial sums across
  /// histogram shards.
  void resetForTest();

private:
  mutable std::mutex M;
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, int64_t>> Gauges;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> Histograms;
};

/// Shorthand for MetricsRegistry::global().
inline MetricsRegistry &metrics() { return MetricsRegistry::global(); }

/// Writes the global registry's snapshot JSON to \p Path. False on IO
/// failure.
bool writeMetricsJson(const std::string &Path);

/// Appends \p Text JSON-escaped (quotes, backslashes, control chars)
/// to \p Out. Shared by the metrics and trace writers.
void appendJsonEscaped(std::string &Out, std::string_view Text);

} // namespace obs
} // namespace slp

#endif // SLP_OBS_METRICS_H
