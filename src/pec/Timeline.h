//===- Timeline.h - Run-journal reconstruction and analysis -----*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pec report timeline`: reads a `pec-journal-v1` run journal (written by
/// `pec prove --journal FILE`, see support/Trace.h) and reconstructs the
/// causal span DAG — run -> rule -> check -> obligation -> query —
/// to answer the questions aggregate metrics cannot:
///
///   * **Critical path**: the causal chain whose length lower-bounds
///     wall-clock at *any* `--jobs`. Fork-join recurrence over the span
///     tree: CP(s) = max(0, D(s) - sum of child durations) + max over
///     children of CP(c), with CP(leaf) = D(leaf). Interval containment
///     (children end before their parent) gives CP(s) <= D(s) by
///     induction, so the reported total can never exceed wall-clock.
///   * **Per-rule wall vs. CPU**: a rule's wall time is its span
///     duration; its CPU time sums the *self* durations over its causal
///     subtree, excluding `cache.wait` spans (blocked, not computing).
///     Self time is computed by per-thread temporal nesting, not causal
///     parentage: with a helping work-stealing pool, a thread blocked in
///     a task group's join loop executes unrelated tasks (other rules),
///     and those appear as temporally nested spans on the same tid —
///     subtracting them keeps every microsecond attributed to exactly one
///     span.
///   * **Scheduler utilization and wasted work**: summed self time is a
///     per-thread interval union, so busy / (threads x wall) is a true
///     <= 100% utilization; plus single-flight cache waits, strengthening
///     re-checks, re-checks skipped via unsat cores, and idle capacity.
///
/// Validation (`validateJournal`) enforces the structural invariants the
/// trace layer guarantees — every end matches a begin, every parent
/// exists and was begun earlier (ids are allocation-ordered, so
/// parent-id < span-id doubles as an acyclicity proof), intervals nest —
/// and is deliberately deterministic: no raw timings are compared, so the
/// journal well-formedness test is stable under TSan and load.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_PEC_TIMELINE_H
#define PEC_PEC_TIMELINE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pec {
namespace timeline {

/// One reconstructed span (a begin/end line pair).
struct JournalSpan {
  uint64_t Id = 0;
  uint64_t Trace = 0;
  uint64_t Parent = 0; ///< 0 for a root span.
  uint64_t Tid = 0;
  std::string Name;
  uint64_t BeginUs = 0;
  uint64_t EndUs = 0;
  bool Ended = false;
  std::map<std::string, std::string> Attrs;
};

/// One instant ("i") line, attached to its enclosing span (0 = none).
struct JournalInstant {
  uint64_t SpanId = 0;
  uint64_t Tid = 0;
  uint64_t Ts = 0;
  std::string Name;
  std::map<std::string, std::string> Attrs;
};

struct Journal {
  std::string Schema;
  std::vector<JournalSpan> Spans; ///< In begin order (file order).
  std::map<uint64_t, size_t> ById;
  std::vector<JournalInstant> Instants;
};

/// Parses the JSONL text of a journal file. Fails (false, *Error set) on
/// malformed JSON, a missing or unknown schema header, an end or instant
/// referencing an unknown span, or a duplicate begin/end.
bool parseJournal(const std::string &Text, Journal &Out,
                  std::string *Error = nullptr);

/// Deterministic structural validation (see file comment). Returns false
/// with *Error naming the first violated invariant.
bool validateJournal(const Journal &J, std::string *Error = nullptr);

/// One hop of the critical path, root first.
struct CriticalPathStep {
  uint64_t SpanId = 0;
  std::string Name;
  std::string Detail; ///< Attribution summary (rule name, purpose, ...).
  uint64_t SelfUs = 0; ///< This hop's own contribution to the path.
};

/// Wall/CPU attribution for one rule proof.
struct RuleAttribution {
  std::string Rule;
  uint64_t WallUs = 0; ///< Duration of the rule span.
  uint64_t CpuUs = 0;  ///< Summed self time of its causal subtree.
  uint64_t Queries = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t Obligations = 0;
  bool Proved = false;
};

struct TimelineAnalysis {
  uint64_t WallUs = 0; ///< max end - min begin over all spans.
  uint64_t Jobs = 0;   ///< From the run span's "jobs" attr (0: unknown).
  uint64_t Threads = 0; ///< Distinct recording tids (workers + main).
  uint64_t Spans = 0;
  uint64_t Queries = 0;

  uint64_t CriticalPathUs = 0;
  std::vector<CriticalPathStep> CriticalPath;

  std::vector<RuleAttribution> Rules; ///< Sorted by wall time, desc.

  uint64_t BusyUs = 0;    ///< Summed self time (minus cache waits).
  double Utilization = 0; ///< Busy / (Threads x Wall).
  uint64_t IdleUs = 0;    ///< Threads x Wall - Busy.

  // Wasted-work accounting.
  uint64_t CacheWaits = 0;   ///< Single-flight waits entered.
  uint64_t CacheWaitUs = 0;  ///< Total time blocked in them.
  uint64_t Rechecks = 0;     ///< Strengthening re-check obligations run.
  uint64_t RecheckUs = 0;    ///< Total time spent re-checking.
  uint64_t CoreSkips = 0;    ///< Re-checks retired by an unsat core.
  uint64_t Strengthenings = 0;
};

/// Computes the analysis; expects a validated journal.
TimelineAnalysis analyzeTimeline(const Journal &J);

/// Human-readable report (the `pec report timeline` default output).
std::string renderTimelineText(const TimelineAnalysis &A);

/// Machine-readable rendering (`pec report timeline --json`), schema
/// `pec-timeline-v1`.
std::string renderTimelineJson(const TimelineAnalysis &A);

/// Renders \p J as Chrome `trace_event` JSON (`pec prove --trace`), for
/// chrome://tracing or https://ui.perfetto.dev: one `X` event per span
/// with its attrs as args, one `i` event per instant, and an `s`/`f`
/// flow pair, keyed by the child's span id, wherever a span's parent ran
/// on another thread.
std::string renderChromeTrace(const Journal &J);

} // namespace timeline
} // namespace pec

#endif // PEC_PEC_TIMELINE_H
