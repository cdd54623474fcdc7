//===- metrics_test.cpp - pec::metrics and pec::flight unit tests ---------------===//
//
// The always-on observability layer (docs/OBSERVABILITY.md): log-linear
// bucket geometry and percentile readout against a sorted scalar
// reference, per-thread shard merge determinism under the ThreadPool,
// the flight recorder's slow-query auto-dump (the dump must be valid JSON
// containing the offending span), and the release of per-thread rings
// and shards at thread exit.
//
//===----------------------------------------------------------------------===//

#include "solver/Atp.h"
#include "support/FlightRecorder.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace pec;

namespace {

/// Deterministic 64-bit LCG (Knuth constants) — the tests need the same
/// value stream on every run and every platform.
uint64_t nextRand(uint64_t &State) {
  State = State * 6364136223846793005ULL + 1442695040888963407ULL;
  return State >> 17;
}

/// The multiset of values every shard-merge epoch records: a spread of
/// magnitudes so many distinct buckets are hit.
uint64_t epochValue(uint64_t I) { return (I * 37 + I * I) % 9000; }

//===----------------------------------------------------------------------===//
// Bucket geometry
//===----------------------------------------------------------------------===//

TEST(MetricsBuckets, ExactBelowTwiceSubBuckets) {
  // Below 2*SubBuckets every value gets its own bucket (and the index
  // happens to equal the value) — small counts like conflict sizes are
  // recorded exactly.
  for (uint64_t V = 0; V < 2 * metrics::SubBuckets; ++V) {
    unsigned Idx = metrics::bucketIndex(V);
    EXPECT_EQ(Idx, V);
    EXPECT_EQ(metrics::bucketLowerBound(Idx), V);
    EXPECT_EQ(metrics::bucketUpperBound(Idx), V);
  }
}

TEST(MetricsBuckets, BoundsContainTheirValues) {
  std::vector<uint64_t> Probe;
  for (uint64_t V = 0; V < 4096; ++V)
    Probe.push_back(V);
  for (unsigned Shift = 12; Shift < 34; ++Shift) {
    uint64_t P = uint64_t(1) << Shift;
    Probe.insert(Probe.end(), {P - 1, P, P + 1, P + P / 2});
  }
  uint64_t Rng = 42;
  for (int I = 0; I < 4096; ++I)
    Probe.push_back(nextRand(Rng) % (uint64_t(1) << 34));
  for (uint64_t V : Probe) {
    unsigned Idx = metrics::bucketIndex(V);
    ASSERT_LT(Idx, metrics::NumBuckets) << V;
    EXPECT_LE(metrics::bucketLowerBound(Idx), V) << "bucket " << Idx;
    EXPECT_GE(metrics::bucketUpperBound(Idx), V) << "bucket " << Idx;
  }
  // Huge values clamp into the table instead of indexing past it.
  EXPECT_LT(metrics::bucketIndex(UINT64_MAX), metrics::NumBuckets);
}

TEST(MetricsBuckets, ContiguousAndBoundedRelativeWidth) {
  for (unsigned Idx = 0; Idx + 1 < metrics::NumBuckets; ++Idx)
    EXPECT_EQ(metrics::bucketLowerBound(Idx + 1),
              metrics::bucketUpperBound(Idx) + 1)
        << "gap or overlap at bucket " << Idx;
  // Above the exact range a bucket is at most 1/SubBuckets of its lower
  // bound wide — the <= 12.5% relative error the header promises. The
  // final bucket is exempt: it is the clamp bucket absorbing everything
  // past 2^(SubBucketLog2 + MaxOctave).
  for (unsigned Idx = 2 * metrics::SubBuckets; Idx + 1 < metrics::NumBuckets;
       ++Idx) {
    uint64_t L = metrics::bucketLowerBound(Idx);
    uint64_t Width = metrics::bucketUpperBound(Idx) - L + 1;
    EXPECT_LE(Width * metrics::SubBuckets, L) << "bucket " << Idx;
  }
}

//===----------------------------------------------------------------------===//
// Percentiles vs. a sorted scalar reference
//===----------------------------------------------------------------------===//

TEST(MetricsHistogram, PercentilesMatchSortedReference) {
  metrics::HistogramSnapshot H;
  std::vector<uint64_t> Values;
  uint64_t Rng = 7;
  for (int I = 0; I < 5000; ++I) {
    // Mixed magnitudes: half tiny (exact buckets), half heavy-tailed.
    uint64_t V = (I % 2) ? nextRand(Rng) % 16
                         : nextRand(Rng) % (uint64_t(1) << (10 + I % 20));
    Values.push_back(V);
    H.record(V);
  }
  std::sort(Values.begin(), Values.end());
  uint64_t Sum = 0;
  for (uint64_t V : Values)
    Sum += V;
  EXPECT_EQ(H.Count, Values.size());
  EXPECT_EQ(H.Sum, Sum);
  EXPECT_EQ(H.Max, Values.back());

  for (double P : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    size_t Rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(P * Values.size())));
    uint64_t True = Values[Rank - 1];
    uint64_t Got = H.percentile(P);
    // The reported percentile is the true percentile's bucket upper
    // bound (clamped to the exact Max): never below the truth, never
    // past the bucket the truth lives in.
    EXPECT_GE(Got, True) << "P=" << P;
    EXPECT_LE(Got, metrics::bucketUpperBound(metrics::bucketIndex(True)))
        << "P=" << P;
    EXPECT_LE(Got, H.Max) << "P=" << P;
  }
  EXPECT_EQ(H.percentile(1.0), H.Max);
  EXPECT_EQ(metrics::HistogramSnapshot().percentile(0.5), 0u);
}

//===----------------------------------------------------------------------===//
// Registry: per-thread shards merge deterministically
//===----------------------------------------------------------------------===//

metrics::Snapshot runRecordingEpoch(unsigned Threads, unsigned Tasks) {
  metrics::resetForTest();
  {
    ThreadPool Pool(Threads);
    TaskGroup Group(Pool);
    for (uint64_t I = 0; I < Tasks; ++I)
      Group.spawn([I] {
        metrics::record(metrics::Hist::SatConflictSize, epochValue(I));
        metrics::add(metrics::Counter::SlowQueries);
      });
    Group.wait();
  } // Pool joined: every task has recorded.
  return metrics::snapshot();
}

TEST(MetricsRegistry, ShardMergeIsDeterministicUnderThreadPool) {
  constexpr unsigned Tasks = 512;
  metrics::HistogramSnapshot Ref;
  for (uint64_t I = 0; I < Tasks; ++I)
    Ref.record(epochValue(I));

  // Whatever threads recorded what, the merged histogram equals the
  // scalar reference — across epochs and across pool widths.
  metrics::Snapshot A = runRecordingEpoch(8, Tasks);
  metrics::Snapshot B = runRecordingEpoch(8, Tasks);
  metrics::Snapshot C = runRecordingEpoch(2, Tasks);
  for (const metrics::Snapshot *S : {&A, &B, &C}) {
    EXPECT_TRUE(S->hist(metrics::Hist::SatConflictSize) == Ref);
    EXPECT_EQ(S->counter(metrics::Counter::SlowQueries), Tasks);
    // The pool's own instrumentation saw every task exactly once.
    EXPECT_EQ(S->hist(metrics::Hist::PoolTaskUs).Count, Tasks);
  }
  metrics::resetForTest();
}

//===----------------------------------------------------------------------===//
// Flight recorder: a slow query must produce a valid JSON dump
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, SlowQueryDumpIsValidJsonWithOffendingSpan) {
  metrics::resetForTest();
  flight::resetForTest();
  std::string Dir = testing::TempDir();
  if (!Dir.empty() && Dir.back() == '/')
    Dir.pop_back();
  flight::setDumpDir(Dir.c_str());
  flight::setSlowQueryThresholdUs(1); // Every query is "slow".

  TermArena Arena;
  Atp Prover(Arena);
  TermId X = Arena.mkSymConst(Symbol::get("x"), Sort::Int);
  FormulaPtr F = Formula::mkImplies(
      Formula::mkLt(Arena, X, Arena.mkInt(4)),
      Formula::mkLt(Arena, X, Arena.mkInt(10)));
  EXPECT_TRUE(Prover.query(AtpQuery::validity(F)).Verdict);
  flight::setSlowQueryThresholdUs(0);

  ASSERT_STRNE(flight::lastDumpPath(), "") << "no dump was written";
  std::ifstream In(flight::lastDumpPath());
  ASSERT_TRUE(In.good()) << flight::lastDumpPath();
  std::stringstream Ss;
  Ss << In.rdbuf();

  std::string Error;
  json::ValuePtr Root = json::parse(Ss.str(), &Error);
  ASSERT_TRUE(Root != nullptr) << "dump is not valid JSON: " << Error;
  ASSERT_TRUE(Root->get("reason") != nullptr);
  EXPECT_EQ(Root->get("reason")->stringValue(), "slow-query");
  ASSERT_TRUE(Root->get("threads") != nullptr);

  // The offending ATP span must appear with both edges, and the End edge
  // carries the duration that tripped the threshold.
  bool SawBegin = false, SawEnd = false, SawInstant = false;
  for (const json::ValuePtr &Thread : Root->get("threads")->array())
    for (const json::ValuePtr &Ev : Thread->get("events")->array()) {
      const std::string &Name = Ev->get("name")->stringValue();
      const std::string &Ph = Ev->get("ph")->stringValue();
      if (Name == "atp.query" && Ph == "B")
        SawBegin = true;
      if (Name == "atp.query" && Ph == "E") {
        SawEnd = true;
        EXPECT_GE(Ev->get("arg")->numberValue(), 1.0);
      }
      if (Name == "slow-query" && Ph == "I")
        SawInstant = true;
    }
  EXPECT_TRUE(SawBegin) << "dump lacks the atp.query Begin edge";
  EXPECT_TRUE(SawEnd) << "dump lacks the atp.query End edge";
  EXPECT_TRUE(SawInstant) << "dump lacks the slow-query instant";

  // The metrics side counted the breach too.
  EXPECT_GE(metrics::snapshot().counter(metrics::Counter::SlowQueries), 1u);

  std::remove(flight::lastDumpPath());
  flight::resetForTest();
  metrics::resetForTest();
}

//===----------------------------------------------------------------------===//
// Per-thread recorder state is released at thread exit
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, ThreadExitReleasesRingsAndShards) {
  metrics::resetForTest();
  flight::resetForTest();
  // More threads than the ring table has slots (128), never two alive at
  // once: each returns its ring slot and folds its shard when it exits.
  constexpr int Threads = 200;
  for (int I = 0; I < Threads; ++I)
    std::thread([Last = I == Threads - 1] {
      trace::Span S(Last ? "test.last_thread" : "test.thread");
      metrics::add(metrics::Counter::SlowQueries);
    }).join();
  EXPECT_EQ(metrics::snapshot().counter(metrics::Counter::SlowQueries),
            static_cast<uint64_t>(Threads));

  std::string Dir = testing::TempDir();
  if (!Dir.empty() && Dir.back() == '/')
    Dir.pop_back();
  flight::setDumpDir(Dir.c_str());
  ASSERT_TRUE(flight::dump("test"));
  std::ifstream In(flight::lastDumpPath());
  std::stringstream Ss;
  Ss << In.rdbuf();
  std::string Error;
  json::ValuePtr Root = json::parse(Ss.str(), &Error);
  ASSERT_TRUE(Root != nullptr) << "dump is not valid JSON: " << Error;
  bool SawBegin = false, SawEnd = false;
  for (const json::ValuePtr &Thread : Root->get("threads")->array())
    for (const json::ValuePtr &Ev : Thread->get("events")->array()) {
      if (Ev->get("name")->stringValue() != "test.last_thread")
        continue;
      SawBegin |= Ev->get("ph")->stringValue() == "B";
      SawEnd |= Ev->get("ph")->stringValue() == "E";
    }
  EXPECT_TRUE(SawBegin && SawEnd)
      << "the last thread's span is missing from the flight dump";

  std::remove(flight::lastDumpPath());
  flight::resetForTest();
  metrics::resetForTest();
}

} // namespace
