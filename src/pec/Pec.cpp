//===- Pec.cpp - PEC pipeline driver ----------------------------------------------===//

#include "pec/Pec.h"

#include "lang/AstOps.h"
#include "pec/Correlate.h"
#include "pec/Explain.h"
#include "pec/Facts.h"
#include "pec/Permute.h"
#include "support/FlightRecorder.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <chrono>

using namespace pec;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

PecResult pec::proveRule(const Rule &R, const PecOptions &Options) {
  auto Start = std::chrono::steady_clock::now();
  PecResult Result;

  telemetry::Span RuleSpan("pec.proveRule");
  RuleSpan.arg("rule", R.Name);
  // Causal root of everything this rule causes (checks, obligations, ATP
  // queries). Created before the log scope so the rule lifecycle log
  // events carry this span's ids.
  trace::Span RuleTrace("rule");
  RuleTrace.attr("rule", R.Name);
  flight::Span FlightSpan("pec.proveRule");
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
    if (!Result.Proved && !Result.FailureReason.empty())
      telemetry::instant("pec.notProved", "pec",
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
    telemetry::Span PermuteSpan("pec.permute");
    trace::Span PermuteTrace("permute");
    PermuteOutcome P = runPermute(R, Prover);
    Result.PermuteSeconds = secondsSince(PermuteStart);
    if (P.Attempted) {
      PermuteSpan.arg("proved", P.Proved ? "yes" : "no");
      PermuteSpan.arg("note", P.Note);
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
    telemetry::Span CorrelateSpan("pec.correlate");
    trace::Span CorrelateTrace("correlate");
    ConditionFlow Flow1(P1, *Ctx), Flow2(P2, *Ctx);
    SeedRel = correlate(P1, P2, *Ctx, Low, S1, S2, Flow1, Flow2);
    CorrelateSpan.arg("seed_entries", static_cast<uint64_t>(SeedRel.size()));
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
    telemetry::Span CheckSpan("pec.check");
    CheckSpan.arg("attempt", static_cast<uint64_t>(Attempt));
    trace::Span CheckTrace("check");
    CheckTrace.attr("attempt", static_cast<uint64_t>(Attempt));
    Rel = CorrelationRelation();
    for (const RelEntry &Entry : SeedRel.entries())
      if (!CheckOpts.BannedPairs.count({Entry.L1, Entry.L2}))
        Rel.add(Entry.L1, Entry.L2, Entry.Pred);
    Result.RelationSize = Rel.size();

    Check = checkRelation(Rel, P1, P2, *Ctx, Low, Prover, S1, S2, CheckOpts);
    CheckSpan.arg("proved", Check.Proved ? "yes" : "no");
    if (Check.Proved || Check.FailedTargets.empty())
      break;
    bool NewBans = false;
    for (const auto &Pair : Check.FailedTargets)
      NewBans |= CheckOpts.BannedPairs.insert(Pair).second;
    if (!NewBans)
      break;
  }
  Result.CheckSeconds = secondsSince(CheckStart);
  Result.Proved = Check.Proved;
  Result.Kind = Check.Kind;
  Result.FailureReason = Check.FailureReason;
  Result.Strengthenings = Check.Strengthenings;
  Result.PathPairs = Check.PathPairs;
  Result.PrunedPathPairs = Check.PrunedPathPairs;
  if (!Check.Proved) {
    Result.Diagnosis = Check.Diagnosis;
    if (Result.Diagnosis)
      Result.Diagnosis->Dot = renderProofDot(P1, P2, Rel, Arena, R.Name,
                                             Result.Diagnosis.get());
  }
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
