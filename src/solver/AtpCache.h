//===- AtpCache.h - Canonicalizing ATP memoization cache --------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide memoization cache for ATP queries, shared by every Atp
/// instance of a parallel proving run (docs/PARALLELISM.md).
///
/// Keys are *canonical query strings*: the formula is rendered with
/// symbolic constants alpha-renamed to their first-occurrence index and
/// with the children of the AC connectives (and/or) sorted by a
/// name-masked skeleton, so obligations that differ only in skolem naming
/// or conjunct order — the common shape across path pairs, strengthening
/// iterations, and structurally similar rules — collide onto one entry.
/// Uninterpreted function names stay literal (`div$`/`mod$` applications
/// are interpreted by lemma expansion, so their names carry meaning), as
/// do variable-name literals and integer constants. Equal keys therefore
/// imply alpha/AC-equivalent queries, which the (deterministic) solver
/// answers identically: hits are sound, including one-sided budget
/// answers, which are just as deterministic.
///
/// Concurrency: the map is sharded by key hash; each shard has its own
/// mutex and condition variable. Entries are *single-flight*: the first
/// thread to miss inserts an in-flight marker and must fulfill() it;
/// later threads block on the shard's condition variable until the entry
/// is ready instead of re-solving. This makes the global hit/miss totals
/// independent of scheduling (each distinct key misses exactly once), a
/// prerequisite for byte-identical reports across runs.
///
/// Model queries are cached one-sidedly: a cached boolean cannot carry the
/// counterexample model a caller asked for, so a model-wanting lookup only
/// counts as a hit when the cached answer makes the model irrelevant (a
/// Validity-kind hit on `true`, a Satisfiability-kind hit on `false`);
/// otherwise the caller is bypassed to a local re-solve (counted in
/// ModelBypasses).
///
/// Entries carry a WorkDelta — the solver-effort counters the original
/// miss spent — which hitting Atp instances replay into their own
/// AtpStats, keeping per-rule statistics identical to a sequential
/// cache-shared run regardless of which thread solved first.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SOLVER_ATPCACHE_H
#define PEC_SOLVER_ATPCACHE_H

#include "solver/Atp.h"
#include "solver/Formula.h"
#include "solver/Term.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace pec {

class AtpStore;

/// Version stamp of the canonicalQueryKey rendering. Persisted stores
/// (AtpStore) refuse to load entries written under a different version:
/// a canonicalizer change silently colliding old keys with new queries
/// would be an unsoundness, so stale stores are discarded, not merged.
/// Bump this whenever KeyBuilder's output can change for any formula.
/// Version 3: keys render the goal as the query states it (version 2
/// rendered a rewritten canonical form), and the kind tag is derived from
/// AtpQuery::Kind.
constexpr uint32_t AtpKeySchemaVersion = 3;

/// Snapshot of the cache counters, summed over all shards.
struct AtpCacheStats {
  uint64_t Hits = 0;          ///< Lookups answered from a ready entry.
  uint64_t Misses = 0;        ///< Lookups that had to solve (then fulfill).
  uint64_t Insertions = 0;    ///< Entries fulfilled (== distinct keys solved).
  uint64_t Evictions = 0;     ///< Ready entries dropped by capacity pressure.
  uint64_t ModelBypasses = 0; ///< Model-wanting lookups forced to re-solve.
  uint64_t Entries = 0;       ///< Ready entries currently resident.
  uint64_t DiskHits = 0;      ///< Subset of Hits served by store-loaded entries.
  uint64_t DiskEntries = 0;   ///< Resident entries that came from the store.
  uint64_t Waits = 0;         ///< Single-flight blocks on an in-flight entry.
  uint64_t LoadMicros = 0;       ///< Wall time of attachStore()'s load.
  uint64_t CheckpointMicros = 0; ///< Cumulative checkpoint() wall time.

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total) : 0.0;
  }
};

class AtpCache {
public:
  /// Solver-effort counters of one query, replayed into the stats of every
  /// Atp that hits the entry (see file comment on determinism).
  struct WorkDelta {
    uint64_t TheoryChecks = 0;
    uint64_t TheoryConflicts = 0;
    uint64_t TheoryPropagations = 0;
    uint64_t TheoryPops = 0;
    uint64_t SatConflicts = 0;
    uint64_t SatDecisions = 0;
    uint64_t Propagations = 0;
    uint64_t Restarts = 0;
    uint64_t LearnedClauses = 0;
    uint64_t DeletedClauses = 0;
  };

  enum class Lookup {
    Hit,   ///< Result/Delta filled from the cache.
    Miss,  ///< Caller owns the in-flight entry and MUST call fulfill().
    Bypass ///< Model-wanting lookup; caller re-solves locally, no fulfill().
  };

  /// \p MaxEntriesPerShard bounds each shard; the default (16k entries over
  /// 16 shards) is far above any current suite's distinct-query count, so
  /// eviction — which would make hit totals scheduling-dependent — does not
  /// occur in practice (the tiny-capacity path is exercised by tests).
  explicit AtpCache(size_t MaxEntriesPerShard = 16384);

  AtpCache(const AtpCache &) = delete;
  AtpCache &operator=(const AtpCache &) = delete;

  /// Flushes any attached store (out-of-line for the AtpStore pimpl).
  ~AtpCache();

  /// Looks up \p Key. \p NeedModelOn selects one-sided model semantics:
  /// -1 = caller wants no model; 0 = caller needs a model when the answer
  /// is false (a Validity query wanting the counterexample); 1 = caller
  /// needs a model when the answer is true (a Satisfiability query wanting
  /// the witness). Blocks while another
  /// thread's identical query is in flight. On Hit fills \p Result and
  /// \p Delta; on Miss the caller must solve and fulfill().
  Lookup acquire(const std::string &Key, int NeedModelOn, bool &Result,
                 WorkDelta &Delta);

  /// Publishes the answer for a key previously acquired as Miss and wakes
  /// all threads waiting on it. When a store is attached the entry is also
  /// appended to its journal (outside the shard lock).
  void fulfill(const std::string &Key, bool Result, const WorkDelta &Delta);

  /// Attaches the persistent store under directory \p Dir
  /// (docs/SERVING.md): loads its snapshot + journal into the shards
  /// (entries marked as disk-resident; torn or corrupt journal tails are
  /// dropped, stale key-schema versions discard the whole store), then
  /// journals every future fulfill(). Call before proving starts — the
  /// load assumes no concurrent lookups. Returns false and leaves the
  /// cache store-less when the directory is unusable.
  bool attachStore(const std::string &Dir, std::string *Error = nullptr);

  /// Rewrites the store snapshot with every ready resident entry and
  /// truncates the journal (atomic rename; see AtpStore::compact). Safe
  /// to call concurrently with lookups. No-op without a store.
  bool checkpoint(std::string *Error = nullptr);

  /// Flushes and fsyncs any batched journal appends. No-op without a
  /// store.
  void flushStore();

  AtpStore *store() const { return Store.get(); }

  AtpCacheStats stats() const;

private:
  struct Entry {
    bool Ready = false;
    bool Result = false;
    bool FromDisk = false; ///< Loaded by attachStore, not solved this run.
    WorkDelta Delta;
  };

  struct Shard {
    mutable std::mutex Mutex;
    std::condition_variable ReadyCv;
    std::unordered_map<std::string, Entry> Entries;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
    uint64_t ModelBypasses = 0;
    uint64_t DiskHits = 0;
    uint64_t Waits = 0;
  };

  static constexpr size_t NumShards = 16;

  Shard &shardFor(const std::string &Key) {
    return Shards[std::hash<std::string>()(Key) % NumShards];
  }

  Shard Shards[NumShards];
  size_t MaxEntriesPerShard;
  std::unique_ptr<AtpStore> Store;
  uint64_t LoadMicros = 0; ///< Written once by attachStore, before lookups.
  /// checkpoint() may race stats(); keep the accumulator atomic.
  std::atomic<uint64_t> CheckpointMicros{0};
};

/// Renders the canonical cache key of query \p F (see file comment):
/// symbolic constants alpha-renamed by first canonical occurrence, and/or
/// children sorted by masked skeleton, everything else literal. \p Kind
/// tags the key so Validity and Satisfiability answers for one goal never
/// collide (Assumptions queries are never cached and have no key).
/// Purely reads \p Arena, so concurrent callers on different arenas (or
/// read-only on the same one) are safe.
std::string canonicalQueryKey(const TermArena &Arena, const FormulaPtr &F,
                              AtpQuery::Kind Kind);

} // namespace pec

#endif // PEC_SOLVER_ATPCACHE_H
