//===- Metrics.h - Always-on counters and histograms -----------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pec::metrics`: a process-wide registry of counters and log-linear
/// latency/size histograms, cheap enough to leave **always on**
/// (docs/OBSERVABILITY.md). Spans (`pec::trace`) answer "what did this run
/// do, event by event"; metrics answer "what do runs look like in the
/// tail" — p50/p90/p99 query latencies, rule latencies, conflict-size
/// distributions — for the report's `metrics` section and `pec serve`'s
/// `stats` verb.
///
/// Design:
///
///   * The metric set is a closed compile-time enum (Counter / Hist). No
///     string lookups, no registration races, no allocation on the
///     record path.
///   * Recording is **per-thread sharded**: every thread owns a shard of
///     relaxed atomics, created on its first record and registered with
///     the process registry. The fast path is one thread-local load plus
///     a handful of relaxed atomic adds — safe under TSan. At thread exit
///     the shard is folded into a retired total and freed, so memory is
///     bounded by the threads alive at once.
///   * `snapshot()` merges the retired total and the live shards. Sums of
///     relaxed adds commute, so a snapshot taken at a quiescent point is
///     deterministic regardless of which thread recorded what.
///   * Histograms are **log-linear**: 8 linear sub-buckets per power of
///     two (exact below 16, relative error <= 12.5% above), 264 buckets
///     covering [0, 2^35). Percentiles are read from bucket upper bounds,
///     so a reported pNN is an upper bound on the true pNN within one
///     bucket's width; `Max` is exact.
///
/// Serialization: the `pec-report` `metrics` section embeds percentile
/// summaries plus sparse bucket arrays (Report.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SUPPORT_METRICS_H
#define PEC_SUPPORT_METRICS_H

#include "support/Telemetry.h"

#include <array>
#include <cstdint>
#include <string>

namespace pec {
namespace metrics {

//===----------------------------------------------------------------------===//
// The closed metric set
//===----------------------------------------------------------------------===//

/// Monotonic counters.
enum class Counter : unsigned {
  AtpCacheHits,     ///< Queries answered from the shared AtpCache.
  AtpCacheMisses,   ///< Queries solved locally and published.
  AtpCacheBypasses, ///< Model-wanting queries the cache could not serve.
  AtpCacheDiskHits, ///< Subset of hits served by persisted-store entries.
  SlowQueries,      ///< Queries past the --slow-query-ms threshold.
  FlightDumpsSuppressed, ///< Slow-query dumps dropped by the per-process cap.
};
constexpr size_t NumCounters = 6;

/// Log-linear histograms. The first NumPurposes entries are the
/// per-purpose ATP query latency slices, indexed in telemetry::Purpose
/// order (use atpQueryHist to map).
enum class Hist : unsigned {
  AtpQueryUsOther = 0,       ///< atp_query_us{purpose="other"}
  AtpQueryUsPathPruning,     ///< atp_query_us{purpose="path-pruning"}
  AtpQueryUsObligation,      ///< atp_query_us{purpose="obligation"}
  AtpQueryUsPermuteCondition,///< atp_query_us{purpose="permute-condition"}
  AtpQueryUsStrengthening,   ///< atp_query_us{purpose="strengthening"}
  AtpQueryUsMinimize,        ///< atp_query_us{purpose="minimize"}
  RuleProveUs,               ///< End-to-end proveRule wall-clock.
  CacheWaitUs,               ///< Single-flight blocking time in AtpCache.
  PoolTaskUs,                ///< ThreadPool task execution latency.
  SatConflictSize,           ///< Learnt clause length per CDCL conflict.
  TheoryConflictSize,        ///< Theory conflict core literal count.
};
constexpr size_t NumHists = 11;

/// The latency histogram for queries tagged with \p P.
inline Hist atpQueryHist(telemetry::Purpose P) {
  return static_cast<Hist>(static_cast<unsigned>(P));
}

/// Stable snake_case name, the key used in the report's metrics section.
/// The per-purpose query-latency slices share "atp_query_us".
const char *counterName(Counter C);
const char *histName(Hist H);

//===----------------------------------------------------------------------===//
// Log-linear bucket geometry
//===----------------------------------------------------------------------===//

constexpr unsigned SubBucketLog2 = 3; ///< 8 linear sub-buckets per octave.
constexpr unsigned SubBuckets = 1u << SubBucketLog2;
constexpr unsigned MaxOctave = 32; ///< Values clamp below 2^(3+32).
constexpr unsigned NumBuckets = SubBuckets + MaxOctave * SubBuckets;

/// The bucket holding \p V. Exact (bucket == value) below 2*SubBuckets;
/// above, values share a bucket with <= 1/SubBuckets relative width.
unsigned bucketIndex(uint64_t V);
/// Smallest / largest value mapping to bucket \p Idx.
uint64_t bucketLowerBound(unsigned Idx);
uint64_t bucketUpperBound(unsigned Idx);

//===----------------------------------------------------------------------===//
// Recording (lock-free fast path)
//===----------------------------------------------------------------------===//

void add(Counter C, uint64_t Delta = 1);
void record(Hist H, uint64_t Value);

//===----------------------------------------------------------------------===//
// Snapshots
//===----------------------------------------------------------------------===//

/// Merged view of one histogram. Also usable standalone as a scalar
/// single-threaded histogram (the unit tests' reference implementation
/// records straight into one of these).
struct HistogramSnapshot {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Max = 0;
  std::array<uint64_t, NumBuckets> Buckets{};

  /// Single-threaded record (for building reference snapshots).
  void record(uint64_t V);

  /// The smallest bucket upper bound B such that at least ceil(P * Count)
  /// recorded values are <= B; 0 when empty. P in [0, 1].
  uint64_t percentile(double P) const;

  bool operator==(const HistogramSnapshot &O) const {
    return Count == O.Count && Sum == O.Sum && Max == O.Max &&
           Buckets == O.Buckets;
  }
};

/// Merged view of the whole registry.
struct Snapshot {
  std::array<uint64_t, NumCounters> Counters{};
  std::array<HistogramSnapshot, NumHists> Hists{};

  const HistogramSnapshot &hist(Hist H) const {
    return Hists[static_cast<size_t>(H)];
  }
  uint64_t counter(Counter C) const {
    return Counters[static_cast<size_t>(C)];
  }
};

/// Merges every thread shard. Deterministic once recording threads have
/// quiesced (sums commute).
Snapshot snapshot();

/// Zeroes every shard (counters, histograms). Test-only: racing
/// recorders may survive into the next epoch.
void resetForTest();

} // namespace metrics
} // namespace pec

#endif // PEC_SUPPORT_METRICS_H
