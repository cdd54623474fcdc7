//===- Report.h - Machine-readable proof reports ----------------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `pec-report-v6` JSON report: one schema-stable document per proof
/// run, carrying per-rule outcomes, pipeline phase times, and the full ATP
/// statistics with the per-purpose query breakdown. Emitted by
/// `pec prove/prove-suite/tv --report json` and by `bench_figure11
/// --pec-json=FILE` (the committed `BENCH_figure11.json` perf trajectory).
/// v2 extended v1 additively: `failure_reason` is a closed taxonomy slug
/// (see pec::FailureKind), the free text moved to `failure_detail`, failed
/// rules may carry a structured `diagnosis` object, and `by_purpose` gained
/// the `minimize` slice. v3 adds two top-level run-context objects:
/// `parallelism` (jobs, hardware concurrency, wall-clock vs. summed rule
/// seconds) and `cache` (the shared AtpCache counters and hit rate; see
/// docs/PARALLELISM.md). Per-rule objects are unchanged from v2 — cache
/// hit attribution to individual rules depends on scheduling, so those
/// counters are reported only as run-level totals, keeping the per-rule
/// payload byte-deterministic. v4 adds the top-level `metrics` section:
/// the pec::metrics registry snapshot — per-purpose ATP latency
/// histograms with p50/p90/p99/max, rule prove latency, cache-wait,
/// pool-task, and SAT/theory conflict-size distributions,
/// each with a sparse `[lower_bound, count]` bucket array, plus the
/// monotonic counters. The schema is documented in
/// docs/OBSERVABILITY.md and docs/DIAGNOSTICS.md and enforced by
/// `validateReport` (which still accepts v1..v4 documents as legacy
/// input; the `check_bench_schema` CTest and the report schema unit tests
/// both call it, so the format cannot silently drift). v5 extends the
/// `cache` section with the persistent-store counters
/// (docs/SERVING.md): `disk_hits` (hits served by entries the run loaded
/// from disk), `disk_entries` (resident entries that came from the
/// store), and the `load_ms`/`checkpoint_ms` wall times of the store
/// load and of all checkpoints. All four are deterministically zero for
/// runs without `--cache-dir`, so report byte-determinism across
/// schedules is preserved. v6 is the current name; its documents have
/// the v5 shape, because the one section v6 added described a pre-solve
/// stage that no longer exists.
///
/// `diffReports` compares two report documents — proved-set changes,
/// per-rule time and ATP-query deltas under a configurable tolerance, and
/// schema drift (a baseline on an *older* schema is a note suggesting
/// regeneration; a downgrade is a regression) — backing the
/// `pec report diff` subcommand and the `check_bench_regression` CTest
/// gate. With percentile tolerances enabled it additionally gates the
/// v4 per-purpose ATP latency percentiles (p50/p99).
///
//===----------------------------------------------------------------------===//

#ifndef PEC_PEC_REPORT_H
#define PEC_PEC_REPORT_H

#include "pec/Pec.h"
#include "solver/AtpCache.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <string>
#include <vector>

namespace pec {

/// One proved (or failed) rule and its pipeline statistics.
struct RuleReport {
  std::string Name;
  PecResult Result;
};

/// Run-level context for the `parallelism`, `cache`, and `metrics`
/// report sections.
struct RunInfo {
  unsigned Jobs = 1;
  unsigned HardwareConcurrency = 0;
  /// Wall-clock of the whole run; contrast with the summed per-rule
  /// seconds to read off the parallel speedup.
  double WallSeconds = 0;
  bool CacheEnabled = false;
  AtpCacheStats Cache;
  /// pec::metrics registry snapshot, taken after the run quiesced (the
  /// v4 `metrics` section).
  metrics::Snapshot Metrics;
};

/// Renders the `pec-report-v6` JSON document. \p Command names the
/// producing run ("prove", "prove-suite", "tv", "bench_figure11"). When
/// \p Run is null the parallelism/cache sections describe a sequential,
/// uncached run (jobs 1, wall == summed rule seconds) and the metrics
/// section snapshots the registry at render time.
std::string renderJsonReport(const std::string &Command,
                             const std::vector<RuleReport> &Rules,
                             const RunInfo *Run = nullptr);

/// Renders the human-readable `--stats` table: per-rule phase seconds,
/// per-purpose ATP query counts, and strengthening iterations, with a
/// totals row.
std::string renderStatsTable(const std::vector<RuleReport> &Rules);

/// Renders the human-readable `--cache-stats` table: one coherent view of
/// the shared AtpCache counters — memory vs. disk hit split, misses,
/// single-flight waits, residency (with the store-loaded share), and the
/// store load/checkpoint wall times. Also backs the `pec serve` stats
/// verb, so daemon and CLI report cache health identically. The
/// scheduling-dependent wait count lives only here, never in report JSON.
std::string renderCacheStatsTable(const AtpCacheStats &C);

/// Validates a parsed report against the `pec-report-v1`..`v6` schema
/// (field presence and JSON types, per-rule and totals; v2 additionally
/// checks the failure taxonomy, `failure_detail`, the `minimize` purpose
/// slice, and any `diagnosis` objects; v3 additionally requires the
/// top-level `parallelism` and `cache` sections; v4 additionally
/// requires the `metrics` section with per-purpose ATP latency
/// percentiles; v5 additionally requires the persistent-store cache
/// fields `disk_hits`/`disk_entries`/`load_ms`/`checkpoint_ms`, and so
/// does v6). On failure returns false and describes the first violation
/// in \p Error.
bool validateReport(const json::ValuePtr &Report, std::string *Error);

/// Tolerances for diffReports. A metric regresses only when it exceeds the
/// old value by BOTH the multiplicative factor and the absolute slack, so
/// microsecond-scale jitter on near-zero baselines never trips the gate.
struct ReportDiffOptions {
  double TimeToleranceFactor = 3.0;
  double TimeSlackSeconds = 0.05;
  double QueryToleranceFactor = 2.0;
  uint64_t QuerySlack = 16;
  /// Budgets for the strengthening hot path (`atp.by_purpose.strengthening`
  /// per rule) — the loop the incremental solver exists to keep cheap, so
  /// the regression gate watches it separately from total rule time.
  double StrengtheningTimeToleranceFactor = 3.0;
  uint64_t StrengtheningTimeSlackMicros = 50000;
  double StrengtheningQueryToleranceFactor = 2.0;
  uint64_t StrengtheningQuerySlack = 8;
  /// Percentile gates over the v4 `metrics.atp_query_us` per-purpose
  /// latency percentiles. Disabled by default (factor 0): percentile
  /// shifts are environment-sensitive, so the gate is opt-in
  /// (`pec report diff --p50-tolerance ... --p99-tolerance ...`).
  double P50ToleranceFactor = 0;
  uint64_t P50SlackMicros = 20000;
  double P99ToleranceFactor = 0;
  uint64_t P99SlackMicros = 100000;
  /// Warm-cache gate (`pec report diff --min-hit-rate R`): the NEW
  /// report's run-level cache hit rate must be at least R. Disabled at 0.
  /// A new report that ran without the cache enabled fails the gate
  /// outright — a warm-run CI lane losing its `--cache-dir` flag should
  /// not pass silently. The v5 disk/memory hit split is reported as a
  /// note alongside.
  double MinHitRate = 0;
};

/// Outcome of comparing two report documents.
struct ReportDiff {
  /// Gate-failing findings: schema drift, rules that disappeared or
  /// flipped proved -> failed, time/query budget breaches.
  std::vector<std::string> Regressions;
  /// Informational findings: new rules, failed -> proved flips, deltas
  /// inside tolerance.
  std::vector<std::string> Notes;

  bool hasRegression() const { return !Regressions.empty(); }
};

/// Compares baseline \p Old against \p New rule by rule (keyed by rule
/// name): proved-set changes, per-rule wall-clock and ATP-query deltas
/// under \p Options, and schema drift (upgrades are notes, downgrades are
/// regressions). Works on any documents that passed validateReport.
ReportDiff diffReports(const json::ValuePtr &Old, const json::ValuePtr &New,
                       const ReportDiffOptions &Options = {});

/// Human-readable rendering of a diff (the `pec report diff` output).
std::string renderReportDiff(const ReportDiff &D);

} // namespace pec

#endif // PEC_PEC_REPORT_H
