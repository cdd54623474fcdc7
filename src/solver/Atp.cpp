//===- Atp.cpp - ATP facade over the pre-solve pipeline + DPLL(T) --------------===//

#include "solver/Atp.h"

#include "solver/AtpCache.h"
#include "solver/Saturate.h"
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

/// Accounts one query: total and per-purpose counts plus wall-clock, and a
/// trace span ("atp" category, tagged with the purpose) when tracing is on.
/// The always-on cost is two steady_clock reads per query — noise next to
/// lemma expansion and CDCL search.
class QueryAccounting {
public:
  QueryAccounting(const char *Name, AtpStats &Stats)
      : Stats(Stats), Name(Name), P(telemetry::currentPurpose()),
        TraceSpan(Name, "atp"), CausalSpan("atp.query"),
        Start(std::chrono::steady_clock::now()) {
    TraceSpan.arg("purpose", telemetry::purposeName(P));
    CausalSpan.attr("purpose", telemetry::purposeName(P));
    flight::record(flight::EventKind::Begin, Name);
  }

  /// The journal span for this query, so the pipeline stages can attribute
  /// their outcome (cache hit/miss/bypass, saturation closed) to it.
  trace::Span &causal() { return CausalSpan; }

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
    flight::record(flight::EventKind::End, Name, Micros);
    uint64_t Threshold = flight::slowQueryThresholdUs();
    if (Threshold && Micros >= Threshold) {
      metrics::add(metrics::Counter::SlowQueries);
      flight::noteSlowQuery(Name, Micros);
    }
  }

private:
  AtpStats &Stats;
  const char *Name;
  telemetry::Purpose P;
  telemetry::Span TraceSpan;
  trace::Span CausalSpan;
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
  S.SatClosed += D.SatClosed;
}

} // namespace

//===----------------------------------------------------------------------===//
// Pre-solve stages
//===----------------------------------------------------------------------===//

/// Stage 1: the shared canonicalizing AtpCache. Sound because equal
/// canonical keys imply equivalent queries that the deterministic solver
/// answers identically. Declines Assumptions-kind queries (session state
/// is the locality the cache would provide, and cores are
/// session-relative) and model-wanting lookups the cached verdict cannot
/// serve; a Miss reserves the single-flight entry, which onSolved()
/// fulfills with whatever the rest of the pipeline produced.
class Atp::CacheStage final : public PreSolveStage {
public:
  explicit CacheStage(Atp &A) : A(A) {}

  const char *name() const override { return "cache"; }

  std::optional<AtpResult> simplify(AtpQuery &Q) override {
    Pending = false;
    if (Q.QueryKind == AtpQuery::Kind::Assumptions || !A.TheCache)
      return std::nullopt;
    const bool Validity = Q.QueryKind == AtpQuery::Kind::Validity;
    Key = A.queryKey(Q);
    bool Cached = false;
    AtpCache::WorkDelta D;
    // One-sided model caching: a model is needed exactly when validity
    // fails / satisfiability holds, so a cached bare verdict can only
    // serve a model-wanting caller on the other answer.
    int NeedModelOn = Q.WantModel ? (Validity ? 0 : 1) : -1;
    switch (A.TheCache->acquire(Key, NeedModelOn, Cached, D)) {
    case AtpCache::Lookup::Hit: {
      ++A.Stats.CacheHits;
      telemetry::counterAdd("atp.cache.hit");
      metrics::add(metrics::Counter::AtpCacheHits);
      A.Causal->attr("cache", "hit");
      replayDelta(A.Stats, D);
      AtpResult R;
      R.Verdict = Cached;
      return R;
    }
    case AtpCache::Lookup::Bypass:
      ++A.Stats.CacheBypasses;
      telemetry::counterAdd("atp.cache.bypass");
      metrics::add(metrics::Counter::AtpCacheBypasses);
      A.Causal->attr("cache", "bypass");
      return std::nullopt;
    case AtpCache::Lookup::Miss:
      break;
    }
    ++A.Stats.CacheMisses;
    telemetry::counterAdd("atp.cache.miss");
    metrics::add(metrics::Counter::AtpCacheMisses);
    A.Causal->attr("cache", "miss");
    Pending = true;
    snapshot();
    return std::nullopt;
  }

  void onSolved(const AtpQuery &Q, const AtpResult &R) override {
    (void)Q;
    if (!Pending)
      return;
    Pending = false;
    A.TheCache->fulfill(Key, R.Verdict, delta());
  }

private:
  /// Captures the solver-work counters before the downstream stages run,
  /// so the spent effort can be published as a WorkDelta. Wall-clock is
  /// excluded on purpose: hitters account their (near-zero) real time,
  /// while the deterministic work counters are replayed as if solved
  /// locally.
  void snapshot() {
    const AtpStats &S = A.Stats;
    Before = {S.TheoryChecks,  S.TheoryConflicts, S.TheoryPropagations,
              S.TheoryPops,    S.SatConflicts,    S.SatDecisions,
              S.Propagations,  S.Restarts,        S.LearnedClauses,
              S.DeletedClauses, S.SatClosed};
  }

  AtpCache::WorkDelta delta() const {
    const AtpStats &S = A.Stats;
    AtpCache::WorkDelta D;
    D.TheoryChecks = S.TheoryChecks - Before[0];
    D.TheoryConflicts = S.TheoryConflicts - Before[1];
    D.TheoryPropagations = S.TheoryPropagations - Before[2];
    D.TheoryPops = S.TheoryPops - Before[3];
    D.SatConflicts = S.SatConflicts - Before[4];
    D.SatDecisions = S.SatDecisions - Before[5];
    D.Propagations = S.Propagations - Before[6];
    D.Restarts = S.Restarts - Before[7];
    D.LearnedClauses = S.LearnedClauses - Before[8];
    D.DeletedClauses = S.DeletedClauses - Before[9];
    D.SatClosed = S.SatClosed - Before[10];
    return D;
  }

  Atp &A;
  std::string Key;
  bool Pending = false;
  std::array<uint64_t, 11> Before{};
};

/// Stage 2: equality saturation (Saturate.h). Sound because it only
/// answers with a derivation — a congruence/arithmetic proof of the goal
/// for validity, a derived contradiction for (un)satisfiability — so the
/// DPLL(T) fallback could never contradict it.
class Atp::SaturateStage final : public PreSolveStage {
public:
  explicit SaturateStage(Atp &A) : A(A) {}

  const char *name() const override { return "saturate"; }

  std::optional<AtpResult> simplify(AtpQuery &Q) override {
    Saturator *S = A.saturatorFor(Q);
    if (!S)
      return std::nullopt;
    telemetry::Span Span("atp.saturate", "atp");
    Span.arg("purpose",
             telemetry::purposeName(telemetry::currentPurpose()));
    std::optional<AtpResult> Answer;
    switch (Q.QueryKind) {
    case AtpQuery::Kind::Validity:
      if (S->proveValid(Q.Goal)) {
        AtpResult R;
        R.Verdict = true;
        Answer = std::move(R);
      }
      break;
    case AtpQuery::Kind::Satisfiability:
      if (S->proveUnsat(Q.Goal)) {
        AtpResult R;
        R.Verdict = false; // Proved unsatisfiable.
        Answer = std::move(R);
      }
      break;
    case AtpQuery::Kind::Assumptions:
      if (std::optional<std::vector<size_t>> Core =
              S->closeAssumptions(Q.Prelude, Q.Assumptions)) {
        AtpResult R;
        R.Verdict = false; // Proved unsatisfiable.
        if (Q.WantCore || Q.MinimizeCore) {
          R.HasCore = true;
          R.Core = std::move(*Core);
          ++A.Stats.AssumptionCores;
          A.Stats.CoreLiterals += R.Core.size();
        }
        Answer = std::move(R);
      }
      break;
    }
    if (Answer) {
      ++A.Stats.SatClosed;
      telemetry::counterAdd("atp.sat_closed");
      metrics::add(metrics::Counter::AtpSatClosed);
      A.Causal->attr("saturation", "closed");
    }
    return Answer;
  }

private:
  Atp &A;
};

//===----------------------------------------------------------------------===//
// Atp
//===----------------------------------------------------------------------===//

Atp::Atp(TermArena &Arena, AtpOptions Options)
    : Arena(Arena), Options(Options) {
  // Pipeline order is part of the design: the cache sees the
  // saturation-canonicalized key (queryKey pre-runs canonicalization), so
  // a hit spares even the saturation closure work.
  Stages.push_back(std::make_unique<CacheStage>(*this));
  Stages.push_back(std::make_unique<SaturateStage>(*this));
}

Atp::~Atp() = default;

Saturator *Atp::saturatorFor(const AtpQuery &Q) {
  if (!Options.Saturate)
    return nullptr;
  SaturateConfig Config;
  Config.NodeBudget = Options.SaturateNodeBudget;
  Config.IterBudget = Options.SaturateIterBudget;
  if (Q.QueryKind == AtpQuery::Kind::Assumptions) {
    if (!SharedSaturator)
      SharedSaturator = std::make_unique<Saturator>(Arena, Config);
    return SharedSaturator.get();
  }
  if (!SaturatorReady) {
    // Fresh per one-shot query, for the same reason solveOneShot uses a
    // fresh SmtSession: canonical forms and cacheable work deltas must
    // not depend on what this instance solved before.
    FreshSaturator = std::make_unique<Saturator>(Arena, Config);
    CanonicalGoal = FreshSaturator->canonicalForm(Q.Goal);
    SaturatorReady = true;
  }
  return FreshSaturator.get();
}

std::string Atp::queryKey(const AtpQuery &Q) {
  FormulaPtr GoalForKey = Q.Goal;
  if (saturatorFor(Q))
    GoalForKey = CanonicalGoal;
  // Saturation preserves logical equivalence, so keys produced with and
  // without the stage may soundly share one cache/store — they just
  // collide less often when canonicalized.
  return canonicalQueryKey(Arena, GoalForKey, Q.QueryKind);
}

AtpResult Atp::solveOneShot(const AtpQuery &Q) {
  // Fresh session per query: cacheable answers must not depend on what
  // this instance solved before. The session solves the *original* goal,
  // not the saturation-extracted form, so `--no-saturate` runs produce
  // bit-identical verdicts (the differential gate in tests/).
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
  const char *Name = IsAssumptions ? "atp.assumptions"
                     : Q.QueryKind == AtpQuery::Kind::Validity
                         ? "atp.validity"
                         : "atp.satisfiability";
  QueryAccounting Account(Name, Stats);
  Causal = &Account.causal();
  if (IsAssumptions)
    ++Stats.AssumptionSolves;

  // Reset the per-query saturation scratch (the persistent SharedSaturator
  // survives; only the one-shot state is per-query).
  FreshSaturator.reset();
  CanonicalGoal = nullptr;
  SaturatorReady = false;
  uint64_t SharedNodes0 = 0, SharedMicros0 = 0;
  if (SharedSaturator) {
    SharedNodes0 = SharedSaturator->nodeCount();
    SharedMicros0 = SharedSaturator->rebuildMicros();
  }

  AtpQuery Local = Q;
  std::optional<AtpResult> Answer;
  size_t AnsweredBy = Stages.size();
  for (size_t I = 0; I < Stages.size(); ++I) {
    Answer = Stages[I]->simplify(Local);
    if (Answer) {
      AnsweredBy = I;
      break;
    }
  }
  AtpResult R = Answer ? std::move(*Answer)
                       : (IsAssumptions ? solveAssumptions(Local)
                                        : solveOneShot(Local));
  for (size_t I = std::min(AnsweredBy, Stages.size()); I-- > 0;)
    Stages[I]->onSolved(Local, R);

  // Saturation work accounting, covering both the canonicalization done
  // for the cache key and any closure attempt.
  if (FreshSaturator) {
    Stats.EgraphNodes += FreshSaturator->nodeCount();
    Stats.SaturateRebuildMicros += FreshSaturator->rebuildMicros();
    FreshSaturator.reset();
    CanonicalGoal = nullptr;
  }
  if (SharedSaturator) {
    Stats.EgraphNodes += SharedSaturator->nodeCount() - SharedNodes0;
    Stats.SaturateRebuildMicros +=
        SharedSaturator->rebuildMicros() - SharedMicros0;
  }
  Causal = nullptr;
  return R;
}
