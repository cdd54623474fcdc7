//===- Metrics.cpp - Always-on counters and histograms --------------------===//

#include "support/Metrics.h"

#include <algorithm>
#include <atomic>
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
  std::atomic<uint64_t> HistBuckets[NumHists][NumBuckets] = {};
  std::atomic<uint64_t> HistSum[NumHists] = {};
  std::atomic<uint64_t> HistMax[NumHists] = {};
};

struct Registry {
  std::mutex Mutex;
  /// Shards of live threads. A thread's shard is folded into Retired and
  /// freed at thread exit, so memory is bounded by the threads alive at
  /// once while their counts survive them.
  std::vector<std::unique_ptr<Shard>> Shards;
  Shard Retired;
};

Registry &registry() {
  static Registry *R = new Registry; // Leaked: usable during shutdown.
  return *R;
}

thread_local Shard *LocalShard = nullptr;

void relaxedMax(std::atomic<uint64_t> &Slot, uint64_t V) {
  uint64_t Cur = Slot.load(std::memory_order_relaxed);
  while (Cur < V &&
         !Slot.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
    ;
}

/// Adds \p From into \p To. Callers hold the registry mutex.
void fold(const Shard &From, Shard &To) {
  constexpr auto R = std::memory_order_relaxed;
  for (size_t C = 0; C < NumCounters; ++C)
    To.Counters[C].fetch_add(From.Counters[C].load(R), R);
  for (size_t H = 0; H < NumHists; ++H) {
    To.HistSum[H].fetch_add(From.HistSum[H].load(R), R);
    relaxedMax(To.HistMax[H], From.HistMax[H].load(R));
    for (unsigned B = 0; B < NumBuckets; ++B)
      To.HistBuckets[H][B].fetch_add(From.HistBuckets[H][B].load(R), R);
  }
}

/// Folds the thread's shard into the retired total at thread exit.
struct ShardLease {
  ~ShardLease() {
    if (!LocalShard)
      return;
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mutex);
    fold(*LocalShard, R.Retired);
    auto It = std::find_if(
        R.Shards.begin(), R.Shards.end(),
        [](const std::unique_ptr<Shard> &S) { return S.get() == LocalShard; });
    R.Shards.erase(It);
    LocalShard = nullptr;
  }
};

Shard &shard() {
  if (LocalShard)
    return *LocalShard;
  static thread_local ShardLease Lease; // Registers the thread-exit hook.
  auto S = std::make_unique<Shard>();
  LocalShard = S.get();
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Shards.push_back(std::move(S));
  return *LocalShard;
}

} // namespace

void metrics::add(Counter C, uint64_t Delta) {
  shard().Counters[static_cast<size_t>(C)].fetch_add(
      Delta, std::memory_order_relaxed);
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
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  Shard Sum;
  fold(R.Retired, Sum);
  for (const std::unique_ptr<Shard> &S : R.Shards)
    fold(*S, Sum);
  Snapshot Out;
  for (size_t C = 0; C < NumCounters; ++C)
    Out.Counters[C] = Sum.Counters[C].load(std::memory_order_relaxed);
  for (size_t H = 0; H < NumHists; ++H) {
    HistogramSnapshot &Dst = Out.Hists[H];
    Dst.Sum = Sum.HistSum[H].load(std::memory_order_relaxed);
    Dst.Max = Sum.HistMax[H].load(std::memory_order_relaxed);
    for (unsigned B = 0; B < NumBuckets; ++B) {
      Dst.Buckets[B] = Sum.HistBuckets[H][B].load(std::memory_order_relaxed);
      Dst.Count += Dst.Buckets[B];
    }
  }
  return Out;
}

void metrics::resetForTest() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::vector<Shard *> All = {&R.Retired};
  for (const std::unique_ptr<Shard> &S : R.Shards)
    All.push_back(S.get());
  for (Shard *S : All) {
    for (size_t C = 0; C < NumCounters; ++C)
      S->Counters[C].store(0, std::memory_order_relaxed);
    for (size_t H = 0; H < NumHists; ++H) {
      S->HistSum[H].store(0, std::memory_order_relaxed);
      S->HistMax[H].store(0, std::memory_order_relaxed);
      for (unsigned B = 0; B < NumBuckets; ++B)
        S->HistBuckets[H][B].store(0, std::memory_order_relaxed);
    }
  }
}
