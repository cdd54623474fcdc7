//===- Atp.cpp - ATP facade: cache lookup, then DPLL(T) -------------------===//

#include "solver/Atp.h"

#include "solver/AtpCache.h"
#include "solver/Smt.h"
#include "solver/Theory.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

using namespace pec;

namespace {

/// Accounts one query: total and per-purpose counts plus wall-clock, and
/// the query's `atp.query` span, tagged with the purpose and the query
/// kind. The always-on cost is two steady_clock reads per query plus the
/// span's two flight-ring records — noise next to lemma expansion and
/// CDCL search.
class QueryAccounting {
public:
  QueryAccounting(const char *Kind, AtpStats &Stats)
      : Stats(Stats), P(telemetry::currentPurpose()), Span("atp.query"),
        Start(std::chrono::steady_clock::now()) {
    Span.attr("purpose", telemetry::purposeName(P));
    Span.attr("kind", Kind);
  }

  /// The query's span, so query() can attribute the cache outcome
  /// (hit/miss/bypass) to it.
  trace::Span &span() { return Span; }

  ~QueryAccounting() {
    uint64_t Micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
    ++Stats.Queries;
    Stats.Microseconds += Micros;
    AtpPurposeStats &Slice = Stats.ByPurpose[static_cast<size_t>(P)];
    ++Slice.Queries;
    Slice.Microseconds += Micros;
    metrics::record(metrics::atpQueryHist(P), Micros);
    // Close the span before a possible slow-query dump so the dump shows
    // the offending query with both edges.
    Span.end();
    uint64_t Threshold = flight::slowQueryThresholdUs();
    if (Threshold && Micros >= Threshold) {
      metrics::add(metrics::Counter::SlowQueries);
      flight::noteSlowQuery("atp.query", Micros);
    }
  }

private:
  AtpStats &Stats;
  telemetry::Purpose P;
  trace::Span Span;
  std::chrono::steady_clock::time_point Start;
};

/// Renders the TermId-based theory model into the string-based AtpModel
/// (which must outlive the arena and the query).
void renderModel(TermArena &Arena, const TheoryModel &TM, AtpModel &Out) {
  Out.Complete = TM.Complete;
  Out.Values.clear();
  Out.Literals.clear();
  Out.Values.reserve(TM.Ints.size());
  for (const TheoryModelEntry &E : TM.Ints)
    Out.Values.push_back(AtpModelEntry{Arena.str(E.Term), E.Value});
  std::sort(Out.Values.begin(), Out.Values.end(),
            [](const AtpModelEntry &A, const AtpModelEntry &B) {
              return A.Term < B.Term;
            });
  Out.Literals.reserve(TM.Literals.size());
  for (const TheoryLit &L : TM.Literals) {
    std::string S = L.Atom->str(Arena);
    Out.Literals.push_back(L.Positive ? S : "!(" + S + ")");
  }
  std::sort(Out.Literals.begin(), Out.Literals.end());
}

void replayDelta(AtpStats &S, const AtpCache::WorkDelta &D) {
  S.TheoryChecks += D.TheoryChecks;
  S.TheoryConflicts += D.TheoryConflicts;
  S.TheoryPropagations += D.TheoryPropagations;
  S.TheoryPops += D.TheoryPops;
  S.SatConflicts += D.SatConflicts;
  S.SatDecisions += D.SatDecisions;
  S.Propagations += D.Propagations;
  S.Restarts += D.Restarts;
  S.LearnedClauses += D.LearnedClauses;
  S.DeletedClauses += D.DeletedClauses;
}

/// The solver-work counters spent since \p Before, published with a cache
/// entry. Wall-clock is excluded on purpose: hitters account their
/// (near-zero) real time, while the deterministic work counters are
/// replayed as if solved locally.
AtpCache::WorkDelta workSince(const AtpStats &Before, const AtpStats &S) {
  AtpCache::WorkDelta D;
  D.TheoryChecks = S.TheoryChecks - Before.TheoryChecks;
  D.TheoryConflicts = S.TheoryConflicts - Before.TheoryConflicts;
  D.TheoryPropagations = S.TheoryPropagations - Before.TheoryPropagations;
  D.TheoryPops = S.TheoryPops - Before.TheoryPops;
  D.SatConflicts = S.SatConflicts - Before.SatConflicts;
  D.SatDecisions = S.SatDecisions - Before.SatDecisions;
  D.Propagations = S.Propagations - Before.Propagations;
  D.Restarts = S.Restarts - Before.Restarts;
  D.LearnedClauses = S.LearnedClauses - Before.LearnedClauses;
  D.DeletedClauses = S.DeletedClauses - Before.DeletedClauses;
  return D;
}

} // namespace

//===----------------------------------------------------------------------===//
// Atp
//===----------------------------------------------------------------------===//

Atp::Atp(TermArena &Arena, AtpOptions Options)
    : Arena(Arena), Options(Options) {}

Atp::~Atp() = default;

AtpResult Atp::solveOneShot(const AtpQuery &Q) {
  // Fresh session per query: cacheable answers must not depend on what
  // this instance solved before.
  const bool Validity = Q.QueryKind == AtpQuery::Kind::Validity;
  SmtSession Ctx(Arena, Options, Stats);
  TheoryModel TM;
  bool Sat = Ctx.solve({Validity ? Formula::mkNot(Q.Goal) : Q.Goal},
                       Q.WantModel ? &TM : nullptr);
  AtpResult R;
  R.Verdict = Validity ? !Sat : Sat;
  if (Sat && Q.WantModel) {
    renderModel(Arena, TM, R.Model);
    R.HasModel = true;
  }
  return R;
}

AtpResult Atp::solveAssumptions(const AtpQuery &Q) {
  if (!Incremental)
    Incremental = std::make_unique<SmtSession>(Arena, Options, Stats);
  std::vector<FormulaPtr> Roots;
  Roots.reserve(1 + Q.Assumptions.size());
  Roots.push_back(Q.Prelude ? Q.Prelude : Formula::mkTrue());
  Roots.insert(Roots.end(), Q.Assumptions.begin(), Q.Assumptions.end());

  const bool NeedCore = Q.WantCore || Q.MinimizeCore;
  AtpResult R;
  TheoryModel TM;
  R.Verdict = Incremental->solve(Roots, Q.WantModel ? &TM : nullptr,
                                 NeedCore ? &R.Core : nullptr);
  if (R.Verdict && Q.WantModel) {
    renderModel(Arena, TM, R.Model);
    R.HasModel = true;
  }
  if (!R.Verdict && NeedCore) {
    R.HasCore = true;
    if (Q.MinimizeCore)
      minimizeAssumptionCore(Q, R);
    ++Stats.AssumptionCores;
    Stats.CoreLiterals += R.Core.size();
  }
  return R;
}

void Atp::minimizeAssumptionCore(const AtpQuery &Q, AtpResult &R) {
  // Destructive deletion on the persistent session: try the core with one
  // element removed; still-unsat keeps the removal (and adopts the solver's
  // possibly smaller sub-core). One pass suffices for 1-minimality: an
  // element kept against a superset would also be kept against any subset
  // (dropping it from fewer constraints is satisfiable a fortiori).
  std::vector<FormulaPtr> Roots;
  Roots.push_back(Q.Prelude ? Q.Prelude : Formula::mkTrue());
  Roots.insert(Roots.end(), Q.Assumptions.begin(), Q.Assumptions.end());
  std::vector<size_t> Core = R.Core;
  for (size_t I = 0; I < Core.size();) {
    std::vector<FormulaPtr> Probe;
    std::vector<size_t> ProbeIdx; // Probe[k] == Roots[ProbeIdx[k]].
    for (size_t K = 0; K < Core.size(); ++K) {
      if (K == I)
        continue;
      Probe.push_back(Roots[Core[K]]);
      ProbeIdx.push_back(Core[K]);
    }
    std::vector<size_t> SubCore;
    if (Incremental->solve(Probe, nullptr, &SubCore)) {
      ++I; // Needed: without element I the rest is satisfiable.
      continue;
    }
    // Still unsat: adopt the (sub-)core the solver reported and rescan
    // from the front of what remains before the probe position.
    std::vector<size_t> Next;
    Next.reserve(SubCore.size());
    for (size_t S : SubCore)
      Next.push_back(ProbeIdx[S]);
    Core = std::move(Next);
    I = 0;
  }
  R.Core = Core;
}

AtpResult Atp::query(const AtpQuery &Q) {
  const bool IsAssumptions = Q.QueryKind == AtpQuery::Kind::Assumptions;
  const bool Validity = Q.QueryKind == AtpQuery::Kind::Validity;
  QueryAccounting Account(IsAssumptions ? "assumptions"
                          : Validity    ? "validity"
                                        : "satisfiability",
                          Stats);
  if (IsAssumptions) {
    ++Stats.AssumptionSolves;
    return solveAssumptions(Q);
  }
  if (!TheCache)
    return solveOneShot(Q);

  // The shared canonicalizing cache. Sound because equal canonical keys
  // imply equivalent queries that the deterministic solver answers
  // identically. A Miss reserves the single-flight entry, which must be
  // fulfilled with the answer solved here.
  const std::string Key = canonicalQueryKey(Arena, Q.Goal, Q.QueryKind);
  bool Cached = false;
  AtpCache::WorkDelta D;
  // One-sided model caching: a model is needed exactly when validity
  // fails / satisfiability holds, so a cached bare verdict can only
  // serve a model-wanting caller on the other answer.
  int NeedModelOn = Q.WantModel ? (Validity ? 0 : 1) : -1;
  switch (TheCache->acquire(Key, NeedModelOn, Cached, D)) {
  case AtpCache::Lookup::Hit: {
    ++Stats.CacheHits;
    metrics::add(metrics::Counter::AtpCacheHits);
    Account.span().attr("cache", "hit");
    replayDelta(Stats, D);
    AtpResult R;
    R.Verdict = Cached;
    return R;
  }
  case AtpCache::Lookup::Bypass:
    ++Stats.CacheBypasses;
    metrics::add(metrics::Counter::AtpCacheBypasses);
    Account.span().attr("cache", "bypass");
    return solveOneShot(Q);
  case AtpCache::Lookup::Miss:
    break;
  }
  ++Stats.CacheMisses;
  metrics::add(metrics::Counter::AtpCacheMisses);
  Account.span().attr("cache", "miss");
  const AtpStats Before = Stats;
  AtpResult R = solveOneShot(Q);
  TheCache->fulfill(Key, R.Verdict, workSince(Before, Stats));
  return R;
}
