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
/// Architecture: every call enters through `Atp::query(AtpQuery)`, which
/// runs two steps:
///
///   1. cache lookup — the shared canonicalizing AtpCache (AtpCache.h), for
///      Validity/Satisfiability queries when a cache is attached;
///   2. DPLL(T) — array read-over-write lemma expansion, Tseitin CNF, a
///      CDCL SAT core, and lazy theory checking with QuickXplain conflict
///      minimization (the engine lives in Smt.h as a session so it can
///      persist across queries).
///
/// Assumptions-kind queries skip the cache: session state is the locality
/// the cache would provide, and cores are session-relative.
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
  /// Queries answered "satisfiable" after a resource limit cut the search
  /// short: the wall-clock budget ran out, or a theory check's LIA
  /// arithmetic overflowed int64 and the check answered "consistent".
  uint64_t BudgetExhausted = 0;
  /// Never written, so always zero. Kept only because
  /// perfbench/prove_loop.cpp still reads them.
  uint64_t SatClosed = 0;
  uint64_t EgraphNodes = 0;
  uint64_t SaturateRebuildMicros = 0;
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
/// the single entry point the cache, accounting, and solving logic key
/// off; the Kind also tags the cache key, so validity and satisfiability
/// answers for one goal never collide.
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

class AtpCache;
class SmtSession;

/// Thread-safety audit (docs/PARALLELISM.md): an Atp instance is
/// single-thread confined — it mutates its TermArena (hash-consing) and
/// its own AtpStats on every query. The parallel prover gives each worker
/// a private arena + Atp; the only shared mutable state is the AtpCache,
/// which synchronizes internally, and the Theory layer is stateless
/// functions over the (confined) arena.
class Atp {
public:
  explicit Atp(TermArena &Arena, AtpOptions Options = {});
  ~Atp(); // Out of line: owns the (forward-declared) session.

  /// The single prover entry point: answers \p Q from the attached
  /// AtpCache when it can, else with DPLL(T), returning the verdict plus
  /// whatever artifacts (model, unsat core) the query asked for.
  /// Validity/Satisfiability verdicts are served from / published to the
  /// cache under canonicalQueryKey; Assumptions queries skip the cache and
  /// run on this instance's *persistent* session (docs/SOLVER.md,
  /// "Incremental solving") — session state is exactly the locality the
  /// cache would otherwise provide. Every formula is held by assumption
  /// for the one call, so nothing needs retracting when the checker
  /// strengthens a predicate and never queries the old one again.
  AtpResult query(const AtpQuery &Q);

  TermArena &arena() { return Arena; }
  const AtpStats &stats() const { return Stats; }
  void resetStats() { Stats = AtpStats(); }

  /// Attaches a shared memoization cache (AtpCache.h). Queries then check
  /// the cache first; answers this instance computes are published to it.
  /// The cache must outlive the Atp. Pass nullptr to detach.
  void setCache(AtpCache *Cache) { TheCache = Cache; }

private:
  AtpResult solveOneShot(const AtpQuery &Q);
  AtpResult solveAssumptions(const AtpQuery &Q);
  void minimizeAssumptionCore(const AtpQuery &Q, AtpResult &R);

  TermArena &Arena;
  AtpOptions Options;
  AtpStats Stats;
  AtpCache *TheCache = nullptr;
  /// Lazily created persistent session for Assumptions queries. Its
  /// lifetime spans the Atp — for the prover, one rule including retry
  /// attempts — so strengthening re-checks reuse everything.
  std::unique_ptr<SmtSession> Incremental;
};

} // namespace pec

#endif // PEC_SOLVER_ATP_H
