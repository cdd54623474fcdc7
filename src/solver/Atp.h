//===- Atp.h - Automated theorem prover facade ------------------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ATP module of the paper (Fig. 9), standing in for the Simplify
/// theorem prover: a validity / satisfiability checker for ground formulas
/// over EUF + LIA + the select/store state theory.
///
/// Architecture: every call enters through `Atp::query(AtpQuery)` and runs
/// down an explicit pre-solve pipeline before any search:
///
///   1. cache lookup — the shared canonicalizing AtpCache (AtpCache.h);
///   2. equality saturation — an e-graph pass over the background axioms
///      (Saturate.h) that closes congruence/arithmetic obligations with
///      zero SAT work;
///   3. DPLL(T) — array read-over-write lemma expansion, Tseitin CNF, a
///      CDCL SAT core, and lazy theory checking with QuickXplain conflict
///      minimization (the engine lives in Smt.h as a session so it can
///      persist across queries).
///
/// Stages implement the PreSolveStage interface below and are ordered in
/// the Atp constructor; Assumptions-kind queries skip the cache (session
/// state is the locality the cache would provide) but still pass through
/// saturation on the persistent per-rule e-graph.
///
/// Answers are one-sided safe: resource exhaustion degrades a validity
/// query to `false` (PEC then conservatively rejects the optimization),
/// never to a wrong `true`.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SOLVER_ATP_H
#define PEC_SOLVER_ATP_H

#include "solver/Formula.h"
#include "solver/Term.h"
#include "support/Telemetry.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace pec {

/// Per-purpose slice of the query statistics: how many queries a pipeline
/// phase issued (tagged via telemetry::PurposeScope) and the wall-clock
/// they cost. Indexed by telemetry::Purpose.
struct AtpPurposeStats {
  uint64_t Queries = 0;
  uint64_t Microseconds = 0;
};

struct AtpStats {
  uint64_t Queries = 0;         ///< Atp::query calls, every kind.
  uint64_t TheoryChecks = 0;    ///< Full-assignment theory consistency runs.
  uint64_t TheoryConflicts = 0; ///< Theory checks that failed.
  uint64_t TheoryPropagations = 0; ///< Literals implied online by theory.
  uint64_t TheoryPops = 0;      ///< Theory backtracking levels undone.
  uint64_t SatConflicts = 0;    ///< CDCL conflicts across all queries.
  uint64_t SatDecisions = 0;    ///< CDCL branching decisions.
  uint64_t Propagations = 0;    ///< Unit propagations across all queries.
  uint64_t Restarts = 0;        ///< CDCL (Luby) restarts.
  uint64_t LearnedClauses = 0;  ///< Clauses learned from conflicts.
  uint64_t DeletedClauses = 0;  ///< Learned clauses dropped by DB reduction.
  uint64_t AssumptionSolves = 0; ///< Assumption-kind queries issued.
  uint64_t AssumptionCores = 0; ///< Unsat cores extracted from assumptions.
  uint64_t CoreLiterals = 0;    ///< Total size of those cores.
  uint64_t Microseconds = 0;    ///< Cumulative wall-clock inside the ATP.
  uint64_t CacheHits = 0;       ///< Queries answered from the AtpCache.
  uint64_t CacheMisses = 0;     ///< Queries this Atp solved and published.
  uint64_t CacheBypasses = 0;   ///< Model-wanting queries re-solved locally.
  uint64_t BudgetExhausted = 0; ///< Queries abandoned at the wall-clock budget.
  uint64_t SatClosed = 0;       ///< Queries closed by equality saturation
                                ///< (zero SAT work; replayed on cache hits).
  uint64_t EgraphNodes = 0;     ///< E-nodes interned by the saturators.
  uint64_t SaturateRebuildMicros = 0; ///< Wall-clock inside saturation.
  /// Breakdown of Queries/Microseconds by query purpose.
  AtpPurposeStats ByPurpose[telemetry::NumPurposes];
};

/// Configuration knobs (exposed for the ablation benchmarks).
///
/// The defaults are the `bench_atp` ablation optima, cross-checked
/// against the full Figure 11 suite (`pec prove-suite` ATP totals, 15
/// interleaved runs per candidate) rather than the synthetic chain
/// alone:
///
///   * TheoryPropagation=true wins decisively on the real suite (~35%
///     less ATP time); the synthetic conflict chain alone favors OFF,
///     which is exactly why the fold waited for a broader workload.
///   * LubyRestartBase {25..400} and LearntBudget {64..8000} sit on a
///     flat plateau on the real suite (spread under the run-to-run
///     noise), so the mid-range values stay: aggressive enough for the
///     synthetic heavy tail, no overhead on the easy bulk.
struct AtpOptions {
  bool MinimizeConflicts = true;
  uint32_t MaxTheoryConflictsPerQuery = 2000;
  /// Online theory propagation (DPLL(T) style); off falls back to
  /// check-at-conflict-only.
  bool TheoryPropagation = true;
  /// LIA bound propagation at assert time: the solver integer-tightens
  /// per-variable bounds while constraints are built, and partial
  /// assignments run a pivot-free probe (TheorySolver::checkPartial) that
  /// catches crossed bounds before the full simplex gate. Off degrades to
  /// EUF-only partial checks; bench_atp carries the A/B.
  bool LiaBoundPropagation = true;
  /// Equality-saturation pre-solve stage (Saturate.h): canonicalizes the
  /// goal for the cache key and closes congruence/arithmetic obligations
  /// before DPLL(T). `--no-saturate` / bench_atp carry the A/B; verdicts
  /// are identical either way (saturation only answers with a proof).
  bool Saturate = true;
  /// Saturation safety valves — never expected to trip (the rewrite
  /// system is strictly simplifying); exposed for the budget tests.
  uint32_t SaturateNodeBudget = 1u << 17;
  uint32_t SaturateIterBudget = 32;
  // SAT search schedule (SatConfig mirrors; exposed for bench ablations).
  uint64_t LubyRestartBase = 100;
  uint32_t LearntBudget = 2000;
  uint32_t LearntBudgetInc = 512;
  /// Wall-clock budget per query in milliseconds; 0 means unlimited. On
  /// exhaustion the query degrades one-sided-safely: the SAT core answers
  /// "satisfiable" without a model, so a validity query becomes false and
  /// PEC conservatively rejects. Fuzz drivers set this so no generated
  /// obligation can hang a run.
  uint64_t QueryBudgetMs = 0;
};

/// One line of a counterexample model: a pretty-printed Int term (state
/// read, symbolic constant, uninterpreted application) and its value.
struct AtpModelEntry {
  std::string Term;
  int64_t Value = 0;
};

/// A satisfying model extracted from a failed validity query (equivalently
/// a successful satisfiability query): concrete valuations for the
/// readable Int terms plus the theory literals the solver committed to.
/// `Complete` is false when the arithmetic model could not be recovered
/// (solver budget exhaustion) — the literals still describe the failing
/// branch. Rendering, not TermIds, so the model outlives its TermArena.
struct AtpModel {
  std::vector<AtpModelEntry> Values;
  std::vector<std::string> Literals;
  bool Complete = false;

  bool empty() const { return Values.empty() && Literals.empty(); }
};

/// One prover call, with everything the call wants named up front. This is
/// the single entry point the pipeline stages, accounting, and solving
/// logic key off; the Kind also tags the cache key, so validity and
/// satisfiability answers for one goal never collide.
struct AtpQuery {
  enum class Kind {
    Validity,       ///< Is Goal true in every model?
    Satisfiability, ///< Does Goal have a model?
    Assumptions,    ///< Is Prelude /\ Assumptions satisfiable (incremental)?
  };

  Kind QueryKind = Kind::Validity;
  FormulaPtr Goal;                     ///< Validity / Satisfiability.
  FormulaPtr Prelude;                  ///< Assumptions kind (may be null).
  std::vector<FormulaPtr> Assumptions; ///< Assumptions kind.
  /// Fill AtpResult::Model: the countermodel for a failed validity query,
  /// the satisfying model otherwise. Model-wanting queries influence the
  /// cache policy (a cached bare verdict cannot serve them).
  bool WantModel = false;
  /// Fill AtpResult::Core on an unsatisfiable Assumptions query.
  bool WantCore = false;
  /// Destructively minimize the core (each drop re-solves on the session).
  bool MinimizeCore = false;

  static AtpQuery validity(FormulaPtr F, bool WantModel = false) {
    AtpQuery Q;
    Q.QueryKind = Kind::Validity;
    Q.Goal = std::move(F);
    Q.WantModel = WantModel;
    return Q;
  }
  static AtpQuery satisfiability(FormulaPtr F, bool WantModel = false) {
    AtpQuery Q;
    Q.QueryKind = Kind::Satisfiability;
    Q.Goal = std::move(F);
    Q.WantModel = WantModel;
    return Q;
  }
  static AtpQuery assumptions(FormulaPtr Prelude,
                              std::vector<FormulaPtr> Assumed,
                              bool WantCore = false,
                              bool MinimizeCore = false) {
    AtpQuery Q;
    Q.QueryKind = Kind::Assumptions;
    Q.Prelude = std::move(Prelude);
    Q.Assumptions = std::move(Assumed);
    Q.WantCore = WantCore;
    Q.MinimizeCore = MinimizeCore;
    return Q;
  }
};

/// What one prover call produced.
struct AtpResult {
  /// Validity kind: "Goal is valid". Other kinds: "satisfiable".
  bool Verdict = false;
  /// Set when the query asked for a model and one was extracted.
  bool HasModel = false;
  AtpModel Model;
  /// Set on an unsatisfiable Assumptions query with WantCore: indices of
  /// an unsat core. Index 0 names the Prelude, index i >= 1 names
  /// Assumptions[i - 1]; the named formulas alone are jointly
  /// unsatisfiable.
  bool HasCore = false;
  std::vector<size_t> Core;
};

/// One stage of the pre-solve pipeline that Atp::query runs a query
/// through before falling back to DPLL(T).
///
/// Contract — one-sided safety: a stage may *answer* a query (return an
/// AtpResult it can prove, sparing all downstream work) or *decline*
/// (return nullopt, passing the query on unchanged), but it must never
/// produce a verdict the fallback solver could contradict. The cache
/// stage satisfies this because equal canonical keys imply equivalent
/// queries answered by the same deterministic solver; the saturation
/// stage because it only answers with a derivation (a congruence proof of
/// validity, a derived contradiction for unsatisfiability). A stage that
/// merely *simplifies* must preserve logical equivalence of the goal.
///
/// Stages run in pipeline order; the first answer wins. Once an answer
/// exists (from a later stage or the fallback solver), onSolved() is
/// invoked on every earlier stage that declined, in reverse order — the
/// cache stage uses this to fulfill its single-flight reservation with
/// whatever the rest of the pipeline produced.
class PreSolveStage {
public:
  virtual ~PreSolveStage() = default;

  /// Stable stage name (trace attribution, debugging).
  virtual const char *name() const = 0;

  /// Try to answer \p Q. May mutate per-query bookkeeping but must leave
  /// the query's meaning intact.
  virtual std::optional<AtpResult> simplify(AtpQuery &Q) = 0;

  /// Called on declining stages (reverse order) once \p R is known.
  virtual void onSolved(const AtpQuery &Q, const AtpResult &R) {
    (void)Q;
    (void)R;
  }
};

class AtpCache;
class SmtSession;
class Saturator;
namespace trace {
class Span;
}

/// Thread-safety audit (docs/PARALLELISM.md): an Atp instance is
/// single-thread confined — it mutates its TermArena (hash-consing) and
/// its own AtpStats on every query. The parallel prover gives each worker
/// a private arena + Atp; the only shared mutable state is the AtpCache,
/// which synchronizes internally, and the Theory layer is stateless
/// functions over the (confined) arena.
class Atp {
public:
  explicit Atp(TermArena &Arena, AtpOptions Options = {});
  ~Atp(); // Out of line: owns the (forward-declared) session + saturator.

  /// The single prover entry point: runs \p Q down the pre-solve pipeline
  /// (cache lookup, equality saturation — see PreSolveStage) and falls
  /// back to DPLL(T), returning the verdict plus whatever artifacts
  /// (model, unsat core) the query asked for. Validity/Satisfiability
  /// verdicts are served from / published to the attached AtpCache under
  /// the saturation-canonicalized key; Assumptions queries skip the cache
  /// and run on this instance's *persistent* session (docs/SOLVER.md,
  /// "Incremental solving") — session state is exactly the locality the
  /// cache would otherwise provide — with saturation sharing one e-graph
  /// across all obligations of the rule. Every formula is held by
  /// assumption for the one call, so nothing needs retracting when the
  /// checker strengthens a predicate and never queries the old one again.
  AtpResult query(const AtpQuery &Q);

  TermArena &arena() { return Arena; }
  const AtpStats &stats() const { return Stats; }
  void resetStats() { Stats = AtpStats(); }

  /// Attaches a shared memoization cache (AtpCache.h). Queries then check
  /// the cache first; answers this instance computes are published to it.
  /// The cache must outlive the Atp. Pass nullptr to detach.
  void setCache(AtpCache *Cache) { TheCache = Cache; }

private:
  class CacheStage;
  class SaturateStage;

  AtpResult solveOneShot(const AtpQuery &Q);
  AtpResult solveAssumptions(const AtpQuery &Q);
  void minimizeAssumptionCore(const AtpQuery &Q, AtpResult &R);

  /// The saturator serving the current query, created on first use:
  /// Assumptions queries share the persistent per-rule instance (one
  /// e-graph across all obligations); cacheable one-shot kinds get a
  /// fresh per-query instance so canonical forms and work deltas are
  /// history-independent (the same reason solveOneShot uses a fresh
  /// SmtSession). Returns nullptr when saturation is disabled.
  Saturator *saturatorFor(const AtpQuery &Q);

  /// Canonical cache key of \p Q: the saturation-extracted goal when the
  /// stage is enabled (equivalence-preserving, so keys from saturating
  /// and non-saturating runs may soundly share a store), the raw goal
  /// otherwise.
  std::string queryKey(const AtpQuery &Q);

  TermArena &Arena;
  AtpOptions Options;
  AtpStats Stats;
  AtpCache *TheCache = nullptr;
  /// Lazily created persistent session for Assumptions queries. Its
  /// lifetime spans the Atp — for the prover, one rule including retry
  /// attempts — so strengthening re-checks reuse everything.
  std::unique_ptr<SmtSession> Incremental;
  /// Persistent saturator twin of Incremental (see saturatorFor).
  std::unique_ptr<Saturator> SharedSaturator;

  /// Per-query scratch, reset at every query() entry.
  std::unique_ptr<Saturator> FreshSaturator; ///< One-shot kinds only.
  FormulaPtr CanonicalGoal;  ///< Saturation-extracted goal (one-shot kinds).
  bool SaturatorReady = false;
  trace::Span *Causal = nullptr; ///< Current query's journal span.

  /// The pre-solve pipeline, in execution order (cache, saturation).
  std::vector<std::unique_ptr<PreSolveStage>> Stages;
};

} // namespace pec

#endif // PEC_SOLVER_ATP_H
