//===- Metrics.cpp - Always-on counters, gauges, and histograms -----------===//

#include "support/Metrics.h"

#include <atomic>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

using namespace pec;
using namespace pec::metrics;

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

const char *metrics::counterName(Counter C) {
  switch (C) {
  case Counter::AtpCacheHits:
    return "atp_cache_hits";
  case Counter::AtpCacheMisses:
    return "atp_cache_misses";
  case Counter::AtpCacheBypasses:
    return "atp_cache_bypasses";
  case Counter::AtpCacheDiskHits:
    return "atp_cache_disk_hits";
  case Counter::SlowQueries:
    return "slow_queries";
  case Counter::FlightDumpsSuppressed:
    return "flight_dumps_suppressed";
  }
  return "unknown";
}

const char *metrics::gaugeName(Gauge G) {
  switch (G) {
  case Gauge::PoolQueueDepth:
    return "pool_queue_depth";
  case Gauge::PoolWorkers:
    return "pool_workers";
  }
  return "unknown";
}

const char *metrics::histName(Hist H) {
  switch (H) {
  case Hist::AtpQueryUsOther:
  case Hist::AtpQueryUsPathPruning:
  case Hist::AtpQueryUsObligation:
  case Hist::AtpQueryUsPermuteCondition:
  case Hist::AtpQueryUsStrengthening:
  case Hist::AtpQueryUsMinimize:
    return "atp_query_us";
  case Hist::RuleProveUs:
    return "rule_prove_us";
  case Hist::CacheWaitUs:
    return "cache_wait_us";
  case Hist::PoolTaskUs:
    return "pool_task_us";
  case Hist::SatConflictSize:
    return "sat_conflict_size";
  case Hist::TheoryConflictSize:
    return "theory_conflict_size";
  }
  return "unknown";
}

const char *metrics::histLabel(Hist H) {
  switch (H) {
  case Hist::AtpQueryUsOther:
    return "purpose=\"other\"";
  case Hist::AtpQueryUsPathPruning:
    return "purpose=\"path-pruning\"";
  case Hist::AtpQueryUsObligation:
    return "purpose=\"obligation\"";
  case Hist::AtpQueryUsPermuteCondition:
    return "purpose=\"permute-condition\"";
  case Hist::AtpQueryUsStrengthening:
    return "purpose=\"strengthening\"";
  case Hist::AtpQueryUsMinimize:
    return "purpose=\"minimize\"";
  default:
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Bucket geometry
//===----------------------------------------------------------------------===//

namespace {

/// Position of the most significant set bit (V > 0).
unsigned msbIndex(uint64_t V) {
  unsigned Msb = 0;
  while (V >>= 1)
    ++Msb;
  return Msb;
}

} // namespace

unsigned metrics::bucketIndex(uint64_t V) {
  if (V < SubBuckets)
    return static_cast<unsigned>(V);
  unsigned Msb = msbIndex(V);
  unsigned Octave = Msb - SubBucketLog2;
  if (Octave >= MaxOctave)
    return NumBuckets - 1; // Clamp: the top bucket is open-ended.
  unsigned Sub =
      static_cast<unsigned>((V >> (Msb - SubBucketLog2)) & (SubBuckets - 1));
  return SubBuckets + Octave * SubBuckets + Sub;
}

uint64_t metrics::bucketLowerBound(unsigned Idx) {
  if (Idx < SubBuckets)
    return Idx;
  unsigned Octave = (Idx - SubBuckets) / SubBuckets;
  unsigned Sub = (Idx - SubBuckets) % SubBuckets;
  return static_cast<uint64_t>(SubBuckets + Sub) << Octave;
}

uint64_t metrics::bucketUpperBound(unsigned Idx) {
  if (Idx == NumBuckets - 1)
    return UINT64_MAX; // Open-ended clamp bucket.
  return bucketLowerBound(Idx + 1) - 1;
}

//===----------------------------------------------------------------------===//
// Per-thread shards and the registry
//===----------------------------------------------------------------------===//

namespace {

struct Shard {
  std::atomic<uint64_t> Counters[NumCounters] = {};
  std::atomic<int64_t> Gauges[NumGauges] = {};
  std::atomic<uint64_t> HistBuckets[NumHists][NumBuckets] = {};
  std::atomic<uint64_t> HistSum[NumHists] = {};
  std::atomic<uint64_t> HistMax[NumHists] = {};
};

struct Registry {
  std::mutex Mutex;
  // Shards are never freed: a thread's counts must survive its exit, and
  // the set of recording threads is bounded (pool workers + main).
  std::vector<std::unique_ptr<Shard>> Shards;
};

Registry &registry() {
  static Registry *R = new Registry; // Leaked: usable during shutdown.
  return *R;
}

thread_local Shard *LocalShard = nullptr;

Shard &shard() {
  if (LocalShard)
    return *LocalShard;
  auto S = std::make_unique<Shard>();
  LocalShard = S.get();
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Shards.push_back(std::move(S));
  return *LocalShard;
}

void relaxedMax(std::atomic<uint64_t> &Slot, uint64_t V) {
  uint64_t Cur = Slot.load(std::memory_order_relaxed);
  while (Cur < V &&
         !Slot.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
    ;
}

} // namespace

void metrics::add(Counter C, uint64_t Delta) {
  shard().Counters[static_cast<size_t>(C)].fetch_add(
      Delta, std::memory_order_relaxed);
}

void metrics::gaugeAdd(Gauge G, int64_t Delta) {
  shard().Gauges[static_cast<size_t>(G)].fetch_add(Delta,
                                                   std::memory_order_relaxed);
}

void metrics::record(Hist H, uint64_t Value) {
  Shard &S = shard();
  size_t I = static_cast<size_t>(H);
  S.HistBuckets[I][bucketIndex(Value)].fetch_add(1,
                                                 std::memory_order_relaxed);
  S.HistSum[I].fetch_add(Value, std::memory_order_relaxed);
  relaxedMax(S.HistMax[I], Value);
}

//===----------------------------------------------------------------------===//
// Snapshots
//===----------------------------------------------------------------------===//

void HistogramSnapshot::record(uint64_t V) {
  ++Count;
  Sum += V;
  if (V > Max)
    Max = V;
  ++Buckets[bucketIndex(V)];
}

uint64_t HistogramSnapshot::percentile(double P) const {
  if (Count == 0)
    return 0;
  if (P < 0)
    P = 0;
  if (P > 1)
    P = 1;
  // Rank = ceil(P * Count), at least 1: the value at that rank in sorted
  // order lives in the first bucket whose cumulative count reaches it.
  uint64_t Rank = static_cast<uint64_t>(P * static_cast<double>(Count));
  if (static_cast<double>(Rank) < P * static_cast<double>(Count))
    ++Rank;
  if (Rank == 0)
    Rank = 1;
  uint64_t Cumulative = 0;
  for (unsigned I = 0; I < NumBuckets; ++I) {
    Cumulative += Buckets[I];
    if (Cumulative >= Rank) {
      // The top bucket is open-ended; report the exact max instead.
      uint64_t Ub = bucketUpperBound(I);
      return Ub > Max ? Max : Ub;
    }
  }
  return Max;
}

Snapshot metrics::snapshot() {
  Snapshot Out;
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (const std::unique_ptr<Shard> &S : R.Shards) {
    for (size_t C = 0; C < NumCounters; ++C)
      Out.Counters[C] += S->Counters[C].load(std::memory_order_relaxed);
    for (size_t G = 0; G < NumGauges; ++G)
      Out.Gauges[G] += S->Gauges[G].load(std::memory_order_relaxed);
    for (size_t H = 0; H < NumHists; ++H) {
      HistogramSnapshot &Dst = Out.Hists[H];
      Dst.Sum += S->HistSum[H].load(std::memory_order_relaxed);
      uint64_t M = S->HistMax[H].load(std::memory_order_relaxed);
      if (M > Dst.Max)
        Dst.Max = M;
      for (unsigned B = 0; B < NumBuckets; ++B) {
        uint64_t N = S->HistBuckets[H][B].load(std::memory_order_relaxed);
        Dst.Buckets[B] += N;
        Dst.Count += N;
      }
    }
  }
  return Out;
}

void metrics::resetForTest() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (const std::unique_ptr<Shard> &S : R.Shards) {
    for (size_t C = 0; C < NumCounters; ++C)
      S->Counters[C].store(0, std::memory_order_relaxed);
    for (size_t G = 0; G < NumGauges; ++G)
      S->Gauges[G].store(0, std::memory_order_relaxed);
    for (size_t H = 0; H < NumHists; ++H) {
      S->HistSum[H].store(0, std::memory_order_relaxed);
      S->HistMax[H].store(0, std::memory_order_relaxed);
      for (unsigned B = 0; B < NumBuckets; ++B)
        S->HistBuckets[H][B].store(0, std::memory_order_relaxed);
    }
  }
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition
//===----------------------------------------------------------------------===//

namespace {

void appendLine(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendLine(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
}

void renderHistogram(std::string &Out, const char *Family,
                     const HistogramSnapshot &H, const char *Label) {
  std::string Series = Label ? std::string(Label) + "," : std::string();
  uint64_t Cumulative = 0;
  for (unsigned B = 0; B < NumBuckets; ++B) {
    if (H.Buckets[B] == 0)
      continue; // Sparse: emit only buckets that moved the count.
    Cumulative += H.Buckets[B];
    appendLine(Out, "pec_%s_bucket{%sle=\"%" PRIu64 "\"} %" PRIu64 "\n",
               Family, Series.c_str(),
               B == NumBuckets - 1 ? H.Max : bucketUpperBound(B),
               Cumulative);
  }
  if (Label) {
    appendLine(Out, "pec_%s_bucket{%s,le=\"+Inf\"} %" PRIu64 "\n", Family,
               Label, H.Count);
    appendLine(Out, "pec_%s_sum{%s} %" PRIu64 "\n", Family, Label, H.Sum);
    appendLine(Out, "pec_%s_count{%s} %" PRIu64 "\n", Family, Label,
               H.Count);
  } else {
    appendLine(Out, "pec_%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", Family,
               H.Count);
    appendLine(Out, "pec_%s_sum %" PRIu64 "\n", Family, H.Sum);
    appendLine(Out, "pec_%s_count %" PRIu64 "\n", Family, H.Count);
  }
}

} // namespace

std::string metrics::renderPrometheus(const Snapshot &S) {
  std::string Out;
  for (size_t C = 0; C < NumCounters; ++C) {
    const char *Name = counterName(static_cast<Counter>(C));
    appendLine(Out, "# TYPE pec_%s_total counter\n", Name);
    appendLine(Out, "pec_%s_total %" PRIu64 "\n", Name, S.Counters[C]);
  }
  for (size_t G = 0; G < NumGauges; ++G) {
    const char *Name = gaugeName(static_cast<Gauge>(G));
    appendLine(Out, "# TYPE pec_%s gauge\n", Name);
    appendLine(Out, "pec_%s %" PRId64 "\n", Name, S.Gauges[G]);
  }
  // One TYPE header per family; the per-purpose latency slices are series
  // of the same family distinguished by the purpose label.
  const char *PrevFamily = "";
  for (size_t H = 0; H < NumHists; ++H) {
    const char *Family = histName(static_cast<Hist>(H));
    if (std::string(Family) != PrevFamily) {
      appendLine(Out, "# TYPE pec_%s histogram\n", Family);
      PrevFamily = Family;
    }
    renderHistogram(Out, Family, S.Hists[H],
                    histLabel(static_cast<Hist>(H)));
  }
  return Out;
}
