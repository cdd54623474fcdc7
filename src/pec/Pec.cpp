//===- Pec.cpp - PEC pipeline driver ----------------------------------------------===//

#include "pec/Pec.h"

#include "lang/AstOps.h"
#include "pec/Correlate.h"
#include "pec/Explain.h"
#include "pec/Facts.h"
#include "pec/Permute.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <sstream>

using namespace pec;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Query budget of the greedy obligation minimizer.
constexpr uint32_t MaxMinimizerQueries = 48;

/// Builds the diagnosis of the failed check \p Check, the attempt
/// proveRule reports. An invalid check also gets a counterexample model
/// and a minimized obligation, both from \p Prover, tagged
/// Purpose::Minimize so reports account them.
std::shared_ptr<FailureDiagnosis> diagnoseCheck(const CheckerResult &Check,
                                                size_t MaxTrailEntries,
                                                Atp &Prover,
                                                const TermArena &Arena) {
  trace::Span Span("pec.diagnose");
  const CheckerFailure &F = Check.Failure;
  auto D = std::make_shared<FailureDiagnosis>();
  D->Kind = Check.Kind;
  D->L1 = F.L1;
  D->L2 = F.L2;
  if (F.EntryPred)
    D->EntryPredicate = clipText(F.EntryPred->str(Arena));
  D->MoverSide = F.MoverSide;
  D->Model = F.Witness;
  if (!F.Check)
    return D;

  D->Obligation = clipText(F.Check->str(Arena));
  for (const StrengtheningStep &Step : Check.Trail) {
    std::ostringstream OS;
    OS << "iteration " << Step.Iteration << ": entry (" << Step.L1 << ","
       << Step.L2 << ") side " << Step.MoverSide << " strengthened with "
       << clipText(Step.Obligation->str(Arena), 300);
    D->StrengtheningTrail.push_back(OS.str());
  }
  if (!Check.Trail.empty() && Check.Trail.size() >= MaxTrailEntries)
    D->StrengtheningTrail.push_back("... (further iterations not recorded)");

  // Side-condition fact instances assumed by the failing constraint.
  std::vector<FormulaPtr> Facts;
  for (const FormulaPtr &Conj : F.Facts)
    flattenConjuncts(Conj, Facts);
  for (const FormulaPtr &Fact : Facts) {
    std::string S = clipText(Fact->str(Arena), 400);
    if (std::find(D->AssumedFacts.begin(), D->AssumedFacts.end(), S) ==
        D->AssumedFacts.end())
      D->AssumedFacts.push_back(S);
    if (D->AssumedFacts.size() >= 16)
      break;
  }

  // Concrete two-state counterexample: re-run the failed query with
  // model extraction (empty when the invalidity was a budget answer).
  {
    telemetry::PurposeScope Tag(telemetry::Purpose::Minimize);
    D->Model =
        Prover.query(AtpQuery::validity(F.Check, /*WantModel=*/true)).Model;
  }

  MinimizeResult M = minimizeObligation(Prover, F.Check, MaxMinimizerQueries);
  D->ObligationConjuncts = M.OriginalConjuncts;
  D->MinimizedConjuncts = M.KeptConjuncts;
  D->MinimizerQueries = M.Queries;
  D->MinimizedObligation = clipText(M.Minimized->str(Arena));
  Span.attr("minimizer_queries", static_cast<uint64_t>(M.Queries));
  return D;
}

} // namespace

PecResult pec::proveRule(const Rule &R, const PecOptions &Options) {
  auto Start = std::chrono::steady_clock::now();
  PecResult Result;

  // Causal root of everything this rule causes (checks, obligations, ATP
  // queries). Created before the log scope so the rule lifecycle log
  // events carry this span's ids.
  trace::Span RuleTrace("rule");
  RuleTrace.attr("rule", R.Name);
  log::Scope RuleScope("rule", R.Name);
  log::debug("rule.start");

  TermArena Arena;
  Atp Prover(Arena, Options.Atp);
  Prover.setCache(Options.Cache);

  // On every exit path: snapshot prover stats and total wall-clock.
  auto Finish = [&]() {
    RuleTrace.attr("proved", Result.Proved ? "yes" : "no");
    Result.Atp = Prover.stats();
    Result.AtpQueries = Result.Atp.Queries;
    Result.Seconds = secondsSince(Start);
    metrics::record(metrics::Hist::RuleProveUs,
                    static_cast<uint64_t>(Result.Seconds * 1e6));
    if (!Result.Proved && !Result.FailureReason.empty() && trace::enabled())
      trace::instant("pec.notProved", "payload",
                     R.Name + ": " + Result.FailureReason);
    if (Result.Proved)
      log::debug("rule.proved")
          .num("queries", Result.AtpQueries)
          .real("seconds", Result.Seconds);
    else
      log::info("rule.not_proved")
          .str("reason", Result.FailureReason)
          .num("queries", Result.AtpQueries)
          .real("seconds", Result.Seconds);
  };

  StmtPtr Before = normalizeStmt(R.Before);
  StmtPtr After = normalizeStmt(R.After);
  std::map<Symbol, MetaStmtInfo> ExtraStmtInfo;

  // --- Permute pre-pass (paper Sec. 6) -----------------------------------
  if (Options.UsePermute) {
    auto PermuteStart = std::chrono::steady_clock::now();
    trace::Span PermuteTrace("permute");
    PermuteOutcome P = runPermute(R, Prover);
    Result.PermuteSeconds = secondsSince(PermuteStart);
    if (P.Attempted) {
      PermuteTrace.attr("proved", P.Proved ? "yes" : "no");
      PermuteTrace.attr("note", P.Note);
      if (!P.Proved) {
        Result.Kind = FailureKind::PermuteConditionFailed;
        Result.FailureReason = "permute: " + P.Note;
        if (Options.Diagnose) {
          auto D = std::make_shared<FailureDiagnosis>();
          D->Kind = Result.Kind;
          // The pipeline stopped before any correlation existed: draw the
          // raw CFGs so the user still sees the two programs.
          D->Dot = renderProofDot(Cfg::build(Before), Cfg::build(After),
                                  CorrelationRelation(), Arena, R.Name,
                                  D.get());
          Result.Diagnosis = std::move(D);
        }
        Finish();
        return Result;
      }
      Result.UsedPermute = true;
      Before = P.NewBefore;
      After = P.NewAfter;
      ExtraStmtInfo = std::move(P.ExtraStmtInfo);
      Result.RequiredDeadVars = std::move(P.RequiredDeadVars);
    }
  }

  // --- Correlate (paper Sec. 4) ------------------------------------------
  auto CorrelateStart = std::chrono::steady_clock::now();
  Cfg P1 = Cfg::build(Before);
  Cfg P2 = Cfg::build(After);

  Expected<ProofContext> Ctx =
      buildProofContext(R, P1, P2, Options.UserFacts);
  if (!Ctx) {
    Result.Kind = FailureKind::SideCondition;
    Result.FailureReason = "side condition: " + Ctx.error().str();
    if (Options.Diagnose) {
      auto D = std::make_shared<FailureDiagnosis>();
      D->Kind = Result.Kind;
      D->Dot = renderProofDot(P1, P2, CorrelationRelation(), Arena, R.Name,
                              D.get());
      Result.Diagnosis = std::move(D);
    }
    Result.CorrelateSeconds = secondsSince(CorrelateStart);
    Finish();
    return Result;
  }
  for (auto &[Name, Info] : ExtraStmtInfo) {
    MetaStmtInfo &Slot = Ctx->Env.StmtInfo[Name];
    Slot.MaskedVars.insert(Info.MaskedVars.begin(), Info.MaskedVars.end());
    Slot.PreservedVars.insert(Info.PreservedVars.begin(),
                              Info.PreservedVars.end());
  }

  Lowering Low(Arena, Ctx->Env);
  TermId S1 = Arena.mkSymConst(Symbol::get("s1"), Sort::State);
  TermId S2 = Arena.mkSymConst(Symbol::get("s2"), Sort::State);

  CorrelationRelation SeedRel;
  {
    trace::Span CorrelateTrace("correlate");
    ConditionFlow Flow1(P1, *Ctx), Flow2(P2, *Ctx);
    SeedRel = correlate(P1, P2, *Ctx, Low, S1, S2, Flow1, Flow2);
    CorrelateTrace.attr("seed_entries", static_cast<uint64_t>(SeedRel.size()));
  }
  Result.CorrelateSeconds = secondsSince(CorrelateStart);

  // --- Check (paper Sec. 5) ----------------------------------------------
  // Check, retrying with wrong seed pairs banned: a seeded correlation pair
  // may be semantically wrong (the aligned states legitimately differ, as
  // in code sinking), while the proof succeeds without it. Removing a pair
  // only weakens the relation, so retrying is sound; the loop is bounded
  // by the seed count.
  auto CheckStart = std::chrono::steady_clock::now();
  CheckerOptions CheckOpts = Options.Checker;
  CheckOpts.Diagnose = Options.Diagnose;
  CheckerResult Check;
  // Declared outside the loop so the final (failing) relation is available
  // to the diagnosis DOT rendering below.
  CorrelationRelation Rel;
  for (size_t Attempt = 0; Attempt <= SeedRel.size(); ++Attempt) {
    trace::Span CheckTrace("check");
    CheckTrace.attr("attempt", static_cast<uint64_t>(Attempt));
    Rel = CorrelationRelation();
    for (const RelEntry &Entry : SeedRel.entries())
      if (!CheckOpts.BannedPairs.count({Entry.L1, Entry.L2}))
        Rel.add(Entry.L1, Entry.L2, Entry.Pred);
    Result.RelationSize = Rel.size();

    Check = checkRelation(Rel, P1, P2, *Ctx, Low, Prover, S1, S2, CheckOpts);
    CheckTrace.attr("proved", Check.Proved ? "yes" : "no");
    if (Check.Proved || Check.FailedTargets.empty())
      break;
    bool NewBans = false;
    for (const auto &Pair : Check.FailedTargets)
      NewBans |= CheckOpts.BannedPairs.insert(Pair).second;
    if (!NewBans)
      break;
  }
  // Only the reported attempt is diagnosed: a retry supersedes the
  // failures before it. Its queries count to the check phase.
  if (!Check.Proved && Options.Diagnose)
    Result.Diagnosis =
        diagnoseCheck(Check, CheckOpts.MaxTrailEntries, Prover, Arena);
  Result.CheckSeconds = secondsSince(CheckStart);
  Result.Proved = Check.Proved;
  Result.Kind = Check.Kind;
  Result.FailureReason = Check.FailureReason;
  Result.Strengthenings = Check.Strengthenings;
  Result.PathPairs = Check.PathPairs;
  Result.PrunedPathPairs = Check.PrunedPathPairs;
  if (Result.Diagnosis)
    Result.Diagnosis->Dot =
        renderProofDot(P1, P2, Rel, Arena, R.Name, Result.Diagnosis.get());
  Finish();
  return Result;
}

PecResult pec::proveEquivalence(const StmtPtr &Original,
                                const StmtPtr &Transformed,
                                const PecOptions &Options) {
  Rule R;
  R.Name = "translation-validation";
  R.Before = Original;
  R.After = Transformed;
  R.Cond = SideCond::mkTrue();
  return proveRule(R, Options);
}
