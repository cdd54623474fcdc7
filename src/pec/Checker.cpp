//===- Checker.cpp - Bisimulation checking --------------------------------------===//

#include "pec/Checker.h"

#include "logic/Subst.h"
#include "logic/SymExec.h"
#include "pec/Correlate.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <sstream>

using namespace pec;
using telemetry::Purpose;
using telemetry::PurposeScope;

/// Set PEC_DEBUG=1 in the environment to trace checker decisions.
static bool debugEnabled() {
  static bool Enabled = std::getenv("PEC_DEBUG") != nullptr;
  return Enabled;
}

namespace {

/// One executed path of one program from a relation entry.
struct ExecutedPath {
  Location End = InvalidLocation;
  FormulaPtr Guards; ///< Path-selecting branch conditions (conjunction).
  FormulaPtr Facts;  ///< Unconditionally valid fact instances.
  TermId FinalState = InvalidTerm;
};

/// One simulation constraint, Definition 2 shape: when program `Mover`
/// takes `Move` from entry `Source`, the other program must have *some*
/// response — one of `Responses` (possibly the empty stuttering response) —
/// landing on a relation entry whose predicate then holds:
///
///   phi_X && A_move  =>  OR_r (A_r && phi_target_r [s -> t])
struct Constraint {
  size_t Source = 0;
  int MoverSide = 1; ///< 1: original moves, 2: transformed moves.
  ExecutedPath Move;
  struct Response {
    size_t Target = 0;
    FormulaPtr Guards; ///< True for the stuttering response.
    FormulaPtr Facts;
    TermId FinalState = InvalidTerm;
  };
  std::vector<Response> Responses;
};

class CheckerImpl {
public:
  CheckerImpl(CorrelationRelation &R, const Cfg &P1, const Cfg &P2,
              const ProofContext &Ctx, Lowering &Low, Atp &Prover, TermId S1,
              TermId S2, const CheckerOptions &Options)
      : R(R), P1(P1), P2(P2), Ctx(Ctx), Low(Low), Prover(Prover), S1(S1),
        S2(S2), Options(Options), Flow1(P1, Ctx), Flow2(P2, Ctx) {}

  CheckerResult run() {
    CheckerResult Result;
    {
      trace::Span PathsTrace("compute_paths");
      if (!computePaths(Result))
        return Result;
      PathsTrace.attr("constraints", static_cast<uint64_t>(Constraints.size()));
      PathsTrace.attr("relation_size", static_cast<uint64_t>(R.size()));
    }
    Result.PathPairs = Constraints.size();
    trace::Span SolveSpan("checker.solveConstraints");
    solveConstraints(Result);
    SolveSpan.attr("strengthenings",
                   static_cast<uint64_t>(Result.Strengthenings));
    return Result;
  }

private:
  FormulaPtr conjoin(const std::vector<FormulaPtr> &Fs) {
    std::vector<FormulaPtr> All = Fs;
    return Formula::mkAnd(std::move(All));
  }

  bool computePaths(CheckerResult &Result) {
    // Stop masks are stable: lazily added entries only pair locations that
    // already occur in the relation on their respective sides.
    std::vector<char> Stops1 = R.origStopMask(P1.numLocations());
    std::vector<char> Stops2 = R.transStopMask(P2.numLocations());

    // Phase A: enumerate paths, prune, and lazily complete the relation.
    // Constraints are built in phase B only once R is stable, so responses
    // can land on pairs discovered while processing other entries.
    std::vector<std::vector<ExecutedPath>> AllExecs1, AllExecs2;
    std::vector<std::vector<ExecutedPath>> AllResps1, AllResps2;

    for (size_t EntryIdx = 0; EntryIdx < R.size(); ++EntryIdx) {
      RelEntry Entry = R.entry(EntryIdx);

      std::vector<CfgPath> Paths1, Paths2;
      if (!enumeratePaths(P1, Entry.L1, Stops1, Paths1,
                          Options.MaxPathsPerEntry, Options.MaxPathLen) ||
          !enumeratePaths(P2, Entry.L2, Stops2, Paths2,
                          Options.MaxPathsPerEntry, Options.MaxPathLen)) {
        Result.Kind = FailureKind::NoCorrelation;
        Result.FailureReason =
            "path enumeration exceeded bounds (a loop is not cut by any "
            "correlation entry)";
        failAt(Result, Entry);
        return false;
      }

      // Bisimulation is symmetric (Def. 3): if one program can still step
      // from this entry but the other is stuck (at its exit), the entry is
      // admissible only if it is unreachable.
      if (Paths1.empty() != Paths2.empty()) {
        PurposeScope Tag(Purpose::PathPruning);
        AtpResult Reach = Prover.query(
            AtpQuery::satisfiability(Entry.Pred, Options.Diagnose));
        if (Reach.Verdict) {
          std::ostringstream OS;
          OS << "at correlated locations (" << Entry.L1 << ", " << Entry.L2
             << ") one program has terminated while the other can still "
                "step";
          Result.Kind = FailureKind::TerminationMismatch;
          Result.FailureReason = OS.str();
          failAt(Result, Entry);
          Result.Failure.MoverSide = Paths1.empty() ? 2 : 1;
          Result.Failure.Witness = std::move(Reach.Model);
          return false;
        }
        AllExecs1.emplace_back();
        AllExecs2.emplace_back();
        AllResps1.emplace_back();
        AllResps2.emplace_back();
        continue;
      }

      auto ExecuteAll = [&](const Cfg &G, Location From,
                            const std::vector<CfgPath> &Paths, TermId State,
                            const LocationFacts *Facts) {
        std::vector<ExecutedPath> Out;
        Out.reserve(Paths.size());
        for (const CfgPath &Path : Paths) {
          PathExec E = executePath(Low, G, From, Path, State, Facts);
          Out.push_back(ExecutedPath{G.edge(Path.back()).To,
                                     conjoin(E.Guards), conjoin(E.Facts),
                                     E.FinalState});
        }
        return Out;
      };

      std::vector<ExecutedPath> Execs1 =
          ExecuteAll(P1, Entry.L1, Paths1, S1, &Ctx.OrigFacts);
      std::vector<ExecutedPath> Execs2 =
          ExecuteAll(P2, Entry.L2, Paths2, S2, &Ctx.TransFacts);

      // Response paths may cross intermediate relation points ("catch-up"
      // stuttering responses). With slack 0 they coincide with the moves.
      std::vector<ExecutedPath> Resps1 = Execs1, Resps2 = Execs2;
      if (Options.ResponseSlack > 0) {
        std::vector<CfgPath> Relaxed1, Relaxed2;
        if (enumeratePaths(P1, Entry.L1, Stops1, Relaxed1,
                           Options.MaxPathsPerEntry, Options.MaxPathLen,
                           Options.ResponseSlack))
          Resps1 = ExecuteAll(P1, Entry.L1, Relaxed1, S1, &Ctx.OrigFacts);
        if (enumeratePaths(P2, Entry.L2, Stops2, Relaxed2,
                           Options.MaxPathsPerEntry, Options.MaxPathLen,
                           Options.ResponseSlack))
          Resps2 = ExecuteAll(P2, Entry.L2, Relaxed2, S2, &Ctx.TransFacts);
      }

      // Lazy relation completion: any jointly feasible endpoint pair must
      // be correlated; add missing pairs with their Cond predicate. (New
      // entries are processed by the outer loop since R grew.)
      for (const ExecutedPath &E1 : Execs1) {
        for (const ExecutedPath &E2 : Execs2) {
          if (R.find(E1.End, E2.End) >= 0)
            continue;
          if (Options.BannedPairs.count({E1.End, E2.End}))
            continue;
          FormulaPtr Joint =
              Formula::mkAnd({Entry.Pred, E1.Guards, E1.Facts, E2.Guards,
                              E2.Facts});
          bool Feasible;
          {
            PurposeScope Tag(Purpose::PathPruning);
            Feasible = Prover.query(AtpQuery::satisfiability(Joint)).Verdict;
          }
          if (!Feasible) {
            ++Result.PrunedPathPairs;
            continue;
          }
          if (debugEnabled())
            std::fprintf(stderr,
                         "[pec] lazily adding pair (%u, %u) from (%u, %u)\n",
                         E1.End, E2.End, Entry.L1, Entry.L2);
          FormulaPtr Pred =
              Formula::mkAnd({Formula::mkEq(Low.arena(), S1, S2),
                              Flow1.postCondition(E1.End, Low, S1),
                              Flow2.postCondition(E2.End, Low, S2)});
          R.add(E1.End, E2.End, std::move(Pred));
        }
      }

      AllExecs1.push_back(std::move(Execs1));
      AllExecs2.push_back(std::move(Execs2));
      AllResps1.push_back(std::move(Resps1));
      AllResps2.push_back(std::move(Resps2));
    }

    // Phase B: Definition 2 constraints for both directions.
    trace::Span ConstraintsSpan("checker.generateConstraints");
    for (size_t EntryIdx = 0; EntryIdx < AllExecs1.size(); ++EntryIdx) {
      const RelEntry &Entry = R.entry(EntryIdx);
      buildConstraints(EntryIdx, Entry, AllExecs1[EntryIdx],
                       AllResps2[EntryIdx], /*MoverSide=*/1);
      buildConstraints(EntryIdx, Entry, AllExecs2[EntryIdx],
                       AllResps1[EntryIdx], /*MoverSide=*/2);
    }
    return true;
  }

  void buildConstraints(size_t EntryIdx, const RelEntry &Entry,
                        const std::vector<ExecutedPath> &Moves,
                        const std::vector<ExecutedPath> &Others,
                        int MoverSide) {
    Location OtherLoc = MoverSide == 1 ? Entry.L2 : Entry.L1;
    for (const ExecutedPath &Move : Moves) {
      Constraint C;
      C.Source = EntryIdx;
      C.MoverSide = MoverSide;
      C.Move = Move;
      for (const ExecutedPath &Resp : Others) {
        int32_t Target = MoverSide == 1 ? R.find(Move.End, Resp.End)
                                        : R.find(Resp.End, Move.End);
        if (Target < 0)
          continue; // Jointly infeasible (pruned above).
        C.Responses.push_back(Constraint::Response{
            static_cast<size_t>(Target), Resp.Guards, Resp.Facts,
            Resp.FinalState});
      }
      // Stuttering response: the other program stays put.
      {
        int32_t Target = MoverSide == 1 ? R.find(Move.End, OtherLoc)
                                        : R.find(OtherLoc, Move.End);
        if (Target >= 0)
          C.Responses.push_back(Constraint::Response{
              static_cast<size_t>(Target), Formula::mkTrue(),
              Formula::mkTrue(), MoverSide == 1 ? S2 : S1});
      }
      Constraints.push_back(std::move(C));
    }
  }

  /// The proof obligation of \p C given current entry predicates:
  ///
  ///   move.guards && move.facts && AND_r resp_r.facts
  ///     =>  OR_r  (resp_r.guards && phi_target_r [s -> t])
  ///
  /// All fact instances are unconditionally valid (flow facts come
  /// pre-wrapped with their guard prefix by the symbolic executor), so they
  /// are sound antecedents even for responses. Response guards sit in
  /// positive position — they select the response the deterministic program
  /// actually takes.
  /// The obligation split at the granularity the incremental core query
  /// wants: the antecedent conjunction and one disjunct per response
  /// (aligned with C.Responses).
  struct ObligationParts {
    FormulaPtr Antecedent;
    std::vector<FormulaPtr> Disjuncts;
  };

  ObligationParts obligationParts(const Constraint &C) {
    std::vector<FormulaPtr> Antecedents = {C.Move.Guards, C.Move.Facts};
    std::vector<FormulaPtr> Disjuncts;
    for (const Constraint::Response &Resp : C.Responses) {
      TermSubst Subst;
      if (C.MoverSide == 1) {
        Subst[S1] = C.Move.FinalState;
        Subst[S2] = Resp.FinalState;
      } else {
        Subst[S1] = Resp.FinalState;
        Subst[S2] = C.Move.FinalState;
      }
      FormulaPtr Shifted =
          substituteFormula(Low.arena(), R.entry(Resp.Target).Pred, Subst);
      Antecedents.push_back(Resp.Facts);
      Disjuncts.push_back(Formula::mkAnd(Resp.Guards, Shifted));
    }
    return ObligationParts{Formula::mkAnd(std::move(Antecedents)),
                           std::move(Disjuncts)};
  }

  /// Records \p Entry as the failing correlation entry.
  static void failAt(CheckerResult &Result, const RelEntry &Entry) {
    Result.Failure.L1 = Entry.L1;
    Result.Failure.L2 = Entry.L2;
    Result.Failure.EntryPred = Entry.Pred;
  }

  /// Records the failing constraint \p C, whose check \p Check came back
  /// invalid, for proveRule's diagnosis.
  void failOn(CheckerResult &Result, const Constraint &C,
              const FormulaPtr &Check, FailureKind Kind) {
    Result.Kind = Kind;
    failAt(Result, R.entry(C.Source));
    CheckerFailure &F = Result.Failure;
    F.MoverSide = C.MoverSide;
    F.Check = Check;
    F.Facts.push_back(C.Move.Facts);
    for (const Constraint::Response &Resp : C.Responses)
      F.Facts.push_back(Resp.Facts);
  }

  void solveConstraints(CheckerResult &Result) {
    std::deque<size_t> Worklist;
    std::vector<char> InWorklist(Constraints.size(), 0);
    // Constraints re-enqueued after a predicate was strengthened: their
    // re-checks are attributed to the "strengthening" query purpose, the
    // initial pass to "obligation".
    std::vector<char> Requeued(Constraints.size(), 0);
    // Response targets named by the last successful incremental check's
    // assumption core (valid only while CoreKnown: a constraint has no core
    // before its first proof, nor after a failed check).
    std::vector<char> CoreKnown(Constraints.size(), 0);
    std::vector<std::vector<size_t>> CoreTargets(Constraints.size());
    for (size_t I = 0; I < Constraints.size(); ++I) {
      Worklist.push_back(I);
      InWorklist[I] = 1;
    }

    while (!Worklist.empty()) {
      size_t CI = Worklist.front();
      Worklist.pop_front();
      InWorklist[CI] = 0;
      const Constraint &C = Constraints[CI];
      if (C.Responses.empty() && debugEnabled())
        std::fprintf(stderr, "[pec] entry (%u,%u): move with no responses\n",
                     R.entry(C.Source).L1, R.entry(C.Source).L2);

      ObligationParts Parts;
      FormulaPtr Obligation;
      {
        trace::Span PwpSpan("checker.pwp");
        Parts = obligationParts(C);
        Obligation = Formula::mkImplies(
            Parts.Antecedent, Formula::mkOr(std::vector<FormulaPtr>(
                                  Parts.Disjuncts)));
      }
      FormulaPtr Check =
          Formula::mkImplies(R.entry(C.Source).Pred, Obligation);
      bool Holds;
      {
        trace::Span SeqTrace("obligation");
        SeqTrace.attr("obligation", static_cast<uint64_t>(CI));
        SeqTrace.attr("kind",
                      Requeued[CI] ? "strengthen-recheck" : "initial");
        PurposeScope Tag(Requeued[CI] ? Purpose::Strengthening
                                      : Purpose::Obligation);
        // Incremental check of `Pred => Obligation` on the prover's
        // persistent session: the predicate's encoding, theory lemmas,
        // and learned clauses carry over from iteration to iteration of
        // the strengthening loop, which is what makes re-checks cheap.
        // Strengthened predicates need no retraction — the old Pred's
        // root literal is simply never assumed again. The query assumes
        // each negated response disjunct separately so the assumption-
        // level unsat core names exactly the responses the proof used;
        // `Check` is still materialized for diagnosis and tracing below.
        AtpQuery Q = AtpQuery::assumptions(
            Formula::mkAnd(R.entry(C.Source).Pred, Parts.Antecedent), {},
            /*WantCore=*/true);
        Q.Assumptions.reserve(Parts.Disjuncts.size());
        for (const FormulaPtr &D : Parts.Disjuncts)
          Q.Assumptions.push_back(Formula::mkNot(D));
        AtpResult Res = Prover.query(Q);
        Holds = !Res.Verdict;
        if (Holds) {
          // Record which response *targets* the final conflict blamed:
          // the proved implication is `Pred && Ante => OR of the core
          // disjuncts`, so strengthening an entry outside this set
          // cannot invalidate it.
          CoreKnown[CI] = 1;
          CoreTargets[CI].clear();
          for (size_t Idx : Res.Core)
            if (Idx >= 1)
              CoreTargets[CI].push_back(C.Responses[Idx - 1].Target);
        } else {
          // The old proof (and its core) is invalidated. The constraint is
          // about to be retired by strengthening its source, which makes
          // its validity depend on *all* of its response targets again —
          // a stale core here would unsoundly skip the re-check when a
          // target outside it is strengthened later.
          CoreKnown[CI] = 0;
          CoreTargets[CI].clear();
        }
        SeqTrace.attr("verdict", Holds ? "holds" : "invalid");
      }
      if (Holds)
        continue;
      if (trace::enabled()) {
        std::ostringstream OS;
        OS << "entry (" << R.entry(C.Source).L1 << ","
           << R.entry(C.Source).L2 << ") side " << C.MoverSide << ": "
           << Check->str(Low.arena());
        trace::instant("checker.obligation.invalid", "payload", OS.str());
      }
      if (debugEnabled())
        std::fprintf(stderr,
                     "[pec] constraint at (%u,%u) side %d INVALID:\n  %s\n",
                     R.entry(C.Source).L1, R.entry(C.Source).L2, C.MoverSide,
                     Check->str(Low.arena()).c_str());

      // Strengthen the source predicate (paper Fig. 9 line 33), unless the
      // source is the entry pair (line 32).
      if (C.Source == 0) {
        failOn(Result, C, Check, FailureKind::ObligationInvalid);
        Result.FailureReason =
            "cannot strengthen the entry predicate: the programs disagree "
            "on some input";
        // Dump the failed obligation so NOT PROVED runs are debuggable
        // from the trace rather than opaque.
        if (trace::enabled())
          trace::instant("checker.proofFailed", "payload",
                         "entry predicate obligation: " +
                             Check->str(Low.arena()));
        // Report the removable targets: a seeded pair may simply be wrong
        // (the driver retries with it banned).
        for (const Constraint::Response &Resp : C.Responses) {
          const RelEntry &Target = R.entry(Resp.Target);
          bool IsEntry = Target.L1 == P1.entry() && Target.L2 == P2.entry();
          bool IsExit = Target.L1 == P1.exit() && Target.L2 == P2.exit();
          if (!IsEntry && !IsExit)
            Result.FailedTargets.emplace_back(Target.L1, Target.L2);
        }
        return;
      }
      if (++Result.Strengthenings > Options.MaxStrengthenings) {
        failOn(Result, C, Check, FailureKind::StrengtheningDiverged);
        Result.FailureReason = "strengthening did not converge";
        if (trace::enabled())
          trace::instant("checker.proofFailed", "payload",
                         "strengthening did not converge; last failed "
                         "obligation: " +
                             Check->str(Low.arena()));
        return;
      }
      if (Options.Diagnose && Result.Trail.size() < Options.MaxTrailEntries)
        Result.Trail.push_back(StrengtheningStep{
            Result.Strengthenings, R.entry(C.Source).L1,
            R.entry(C.Source).L2, C.MoverSide, Obligation});
      R.entry(C.Source).Pred =
          Formula::mkAnd(R.entry(C.Source).Pred, Obligation);
      if (trace::enabled())
        trace::instant("strengthen", "entry",
                       std::to_string(R.entry(C.Source).L1) + "," +
                           std::to_string(R.entry(C.Source).L2));
      // Re-check every constraint that mentions the strengthened entry as
      // a response target — except those whose last proof's unsat core
      // shows the entry's disjunct was never used: their implication only
      // mentioned other (unchanged) targets and a source predicate that
      // just got stronger, so it still holds.
      Requeued[CI] = 1;
      for (size_t I = 0; I < Constraints.size(); ++I) {
        if (InWorklist[I])
          continue;
        bool Mentions = false;
        for (const Constraint::Response &Resp : Constraints[I].Responses) {
          if (Resp.Target == C.Source) {
            Mentions = true;
            break;
          }
        }
        if (!Mentions)
          continue;
        if (CoreKnown[I] &&
            std::find(CoreTargets[I].begin(), CoreTargets[I].end(),
                      C.Source) == CoreTargets[I].end()) {
          ++Result.CoreSkippedRechecks;
          if (trace::enabled())
            trace::instant("core_skip", "obligation", std::to_string(I));
          continue;
        }
        Worklist.push_back(I);
        InWorklist[I] = 1;
        Requeued[I] = 1;
      }
    }
    Result.Proved = true;
  }

  CorrelationRelation &R;
  const Cfg &P1;
  const Cfg &P2;
  const ProofContext &Ctx;
  Lowering &Low;
  Atp &Prover;
  TermId S1, S2;
  CheckerOptions Options;
  ConditionFlow Flow1, Flow2;
  std::vector<Constraint> Constraints;
};

} // namespace

CheckerResult pec::checkRelation(CorrelationRelation &R, const Cfg &P1,
                                 const Cfg &P2, const ProofContext &Ctx,
                                 Lowering &Low, Atp &Prover, TermId S1,
                                 TermId S2, const CheckerOptions &Options) {
  CheckerImpl Impl(R, P1, P2, Ctx, Low, Prover, S1, S2, Options);
  return Impl.run();
}
