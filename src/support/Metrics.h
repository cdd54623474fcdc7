//===- Metrics.h - Always-on counters, gauges, and histograms ---*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pec::metrics`: a process-wide registry of counters, gauges, and
/// log-linear latency/size histograms, cheap enough to leave **always on**
/// (docs/OBSERVABILITY.md). This is the aggregate-statistics complement to
/// `pec::telemetry`, which stays the opt-in *tracing* layer: telemetry
/// answers "what did this run do, event by event", metrics answer "what do
/// runs look like in the tail" — p50/p90/p99 query latencies, rule
/// latencies, conflict-size distributions — the numbers a long-lived
/// `pec serve` daemon will be scraped for.
///
/// Design:
///
///   * The metric set is a closed compile-time enum (Counter / Gauge /
///     Hist). No string lookups, no registration races, no allocation on
///     the record path.
///   * Recording is **per-thread sharded**: every thread owns a shard of
///     relaxed atomics, created on its first record and registered with
///     the process registry. The fast path is one thread-local load plus
///     a handful of relaxed atomic adds — safe under TSan and within
///     noise of the uninstrumented pipeline (`bench_checker` is the
///     acceptance gate).
///   * `snapshot()` merges all shards. Sums of relaxed adds commute, so a
///     snapshot taken at a quiescent point is deterministic regardless of
///     which thread recorded what.
///   * Histograms are **log-linear**: 8 linear sub-buckets per power of
///     two (exact below 16, relative error <= 12.5% above), 264 buckets
///     covering [0, 2^35). Percentiles are read from bucket upper bounds,
///     so a reported pNN is an upper bound on the true pNN within one
///     bucket's width; `Max` is exact.
///
/// Serialization: `renderPrometheus` emits the text exposition format
/// (counters as `_total`, histograms as cumulative `_bucket{le=...}` +
/// `_sum`/`_count`), and the `pec-report-v4` `metrics` section embeds
/// percentile summaries plus sparse bucket arrays (Report.cpp).
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

/// Monotonic counters (Prometheus `_total`).
enum class Counter : unsigned {
  AtpCacheHits,     ///< Queries answered from the shared AtpCache.
  AtpCacheMisses,   ///< Queries solved locally and published.
  AtpCacheBypasses, ///< Model-wanting queries the cache could not serve.
  AtpCacheDiskHits, ///< Subset of hits served by persisted-store entries.
  SlowQueries,      ///< Queries past the --slow-query-ms threshold.
  FlightDumpsSuppressed, ///< Slow-query dumps dropped by the per-process cap.
};
constexpr size_t NumCounters = 6;

/// Instantaneous values, additive across shards (a thread adds on entry
/// and subtracts on exit, so the shard sum is the current level).
enum class Gauge : unsigned {
  PoolQueueDepth, ///< Tasks submitted to a ThreadPool, not yet started.
  PoolWorkers,    ///< Live ThreadPool worker threads.
};
constexpr size_t NumGauges = 2;

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

/// Stable snake_case name (Prometheus family name without the pec_
/// prefix, and the key used in the pec-report-v4 metrics section).
const char *counterName(Counter C);
const char *gaugeName(Gauge G);
const char *histName(Hist H);
/// Label rendered on the Prometheus series ("purpose=\"obligation\"") or
/// nullptr for unlabeled families. Families sharing a histName differ
/// only in this label.
const char *histLabel(Hist H);

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
void gaugeAdd(Gauge G, int64_t Delta);
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
  std::array<int64_t, NumGauges> Gauges{};
  std::array<HistogramSnapshot, NumHists> Hists{};

  const HistogramSnapshot &hist(Hist H) const {
    return Hists[static_cast<size_t>(H)];
  }
  uint64_t counter(Counter C) const {
    return Counters[static_cast<size_t>(C)];
  }
  int64_t gauge(Gauge G) const { return Gauges[static_cast<size_t>(G)]; }
};

/// Merges every thread shard. Deterministic once recording threads have
/// quiesced (sums commute).
Snapshot snapshot();

/// Zeroes every shard (counters, gauges, histograms). Test-only: racing
/// recorders may survive into the next epoch.
void resetForTest();

//===----------------------------------------------------------------------===//
// Prometheus text exposition
//===----------------------------------------------------------------------===//

/// Renders \p S in the Prometheus text format (the `--metrics-out FILE`
/// payload): `# TYPE` headers, `pec_`-prefixed families, histograms as
/// cumulative `_bucket{le="..."}` series (sparse: only buckets whose
/// count changed, plus `+Inf`) with `_sum` and `_count`.
std::string renderPrometheus(const Snapshot &S);

} // namespace metrics
} // namespace pec

#endif // PEC_SUPPORT_METRICS_H
