//===- Differ.cpp - Prover-vs-interpreter differential driver ----------------===//

#include "fuzz/Differ.h"

#include "engine/Apply.h"
#include "fuzz/Corpus.h"
#include "fuzz/Minimize.h"
#include "lang/AstOps.h"
#include "lang/Printer.h"
#include "pec/Explain.h"
#include "pec/Pec.h"
#include "support/ThreadPool.h"

#include <map>
#include <sstream>

using namespace pec;
using namespace pec::fuzz;

namespace {

/// Once-per-campaign verdict for a rule: proved?, dead-var obligations,
/// counterexample-model bias values for rejected rules.
struct RuleVerdict {
  const Rule *R = nullptr;
  /// The rule as the campaign applies it: free After-side expression
  /// meta-variables specialized to literals (see above).
  Rule Applied;
  std::string Text;
  bool Proved = false;
  std::set<Symbol> RequiredDeadVars;
  /// Meta-variables whose concrete images are unobservable and must be
  /// excluded from final-state comparison: the checker's RequiredDeadVars
  /// (the rule is proved only modulo them being dead after the fragment —
  /// their exit values may legitimately differ, e.g. loop_alignment's
  /// shifted index) plus fresh variables the After side introduces (the
  /// engine binds them to names the program never reads).
  std::set<Symbol> IgnoreMeta;
  std::vector<std::pair<std::string, int64_t>> ModelBias;
};

//===--------------------------------------------------------------------===//
// After-only expression meta-variable specialization
//===--------------------------------------------------------------------===//
//
// Some rules are parameterized by meta-variables that occur only on the
// After side — loop_splitting's split point E2, say: the checker proves
// the rewrite for *every* instantiation and the optimizer picks one at
// apply time. The engine already invents fresh names for free variable
// meta-variables, but a free *expression* meta-variable would trip
// instantiateExpr, so the campaign specializes each one to a small
// literal (sound precisely because the rule is proved for all values).

ExprPtr substExprMetasE(const ExprPtr &E,
                        const std::map<Symbol, ExprPtr> &M) {
  switch (E->kind()) {
  case ExprKind::MetaExpr: {
    auto It = M.find(E->name());
    return It == M.end() ? E : It->second;
  }
  case ExprKind::ArrayRead:
    return Expr::mkArrayRead(E->name(), E->arrayIsMeta(),
                             substExprMetasE(E->index(), M), E->location());
  case ExprKind::Binary:
    return Expr::mkBinary(E->binOp(), substExprMetasE(E->lhs(), M),
                          substExprMetasE(E->rhs(), M), E->location());
  case ExprKind::Unary:
    return Expr::mkUnary(E->unOp(), substExprMetasE(E->lhs(), M),
                         E->location());
  default:
    return E;
  }
}

StmtPtr substExprMetasS(const StmtPtr &S,
                        const std::map<Symbol, ExprPtr> &M) {
  switch (S->kind()) {
  case StmtKind::Skip:
    return S;
  case StmtKind::Assign: {
    LValue T = S->target();
    if (T.Index)
      T.Index = substExprMetasE(T.Index, M);
    return Stmt::mkAssign(T, substExprMetasE(S->value(), M), S->label(),
                          S->location());
  }
  case StmtKind::Seq: {
    std::vector<StmtPtr> Kids;
    for (const StmtPtr &C : S->stmts())
      Kids.push_back(substExprMetasS(C, M));
    return Stmt::mkSeq(std::move(Kids), S->label(), S->location());
  }
  case StmtKind::If:
    return Stmt::mkIf(
        substExprMetasE(S->cond(), M), substExprMetasS(S->thenStmt(), M),
        S->elseStmt() ? substExprMetasS(S->elseStmt(), M) : nullptr,
        S->label(), S->location());
  case StmtKind::While:
    return Stmt::mkWhile(substExprMetasE(S->cond(), M),
                         substExprMetasS(S->body(), M), S->label(),
                         S->location());
  case StmtKind::For:
    return Stmt::mkFor(S->indexVar(), S->indexIsMeta(),
                       substExprMetasE(S->init(), M),
                       substExprMetasE(S->cond(), M), S->stepDelta(),
                       substExprMetasS(S->body(), M), S->label(),
                       S->location());
  case StmtKind::Assume:
    return Stmt::mkAssume(substExprMetasE(S->cond(), M), S->label(),
                          S->location());
  case StmtKind::MetaStmt: {
    std::vector<ExprPtr> Holes;
    for (const ExprPtr &H : S->holeArgs())
      Holes.push_back(substExprMetasE(H, M));
    return Stmt::mkMetaStmt(S->metaName(), std::move(Holes), S->label(),
                            S->location());
  }
  }
  return S;
}

SideCondPtr substExprMetasC(const SideCondPtr &C,
                            const std::map<Symbol, ExprPtr> &M) {
  switch (C->kind()) {
  case SideCondKind::True:
    return C;
  case SideCondKind::Atom: {
    std::vector<FactArg> Args;
    for (const FactArg &A : C->args())
      Args.push_back(A.isExpr() ? FactArg::expr(substExprMetasE(A.E, M))
                                : FactArg::stmt(substExprMetasS(A.S, M)));
    return SideCond::mkAtom(C->factName(), std::move(Args), C->atLabel());
  }
  case SideCondKind::And:
  case SideCondKind::Or: {
    std::vector<SideCondPtr> Kids;
    for (const SideCondPtr &Child : C->children())
      Kids.push_back(substExprMetasC(Child, M));
    return C->kind() == SideCondKind::And
               ? SideCond::mkAnd(std::move(Kids))
               : SideCond::mkOr(std::move(Kids));
  }
  case SideCondKind::Not:
    return SideCond::mkNot(substExprMetasC(C->children()[0], M));
  case SideCondKind::Forall:
    return SideCond::mkForall(C->boundVars(),
                              substExprMetasC(C->children()[0], M));
  }
  return C;
}

Rule specializeFreeExprMetas(const Rule &R) {
  MetaVars Before, After;
  collectMetaVars(R.Before, Before);
  collectMetaVars(R.After, After);
  if (R.Cond)
    R.Cond->forEachAtom([&After](const SideCond &Atom) {
      for (const FactArg &A : Atom.args())
        if (A.isExpr())
          collectMetaVars(A.E, After);
    });
  std::map<Symbol, ExprPtr> Subst;
  int64_t NextLit = 2;
  for (Symbol E : After.ExprVars)
    if (!Before.ExprVars.count(E))
      Subst.emplace(E, Expr::mkInt(NextLit++));
  if (Subst.empty())
    return R;
  Rule Out = R;
  Out.After = substExprMetasS(R.After, Subst);
  if (R.Cond)
    Out.Cond = substExprMetasC(R.Cond, Subst);
  return Out;
}

/// A profitability heuristic that deterministically picks surviving site
/// \p K (applyRule presents only the side-condition-surviving sites) and
/// reports the concrete names bound to \p IgnoreMeta at that site.
ProfitabilityFn pickSite(uint32_t K, const std::set<Symbol> &IgnoreMeta,
                         std::set<Symbol> *IgnoreConcrete) {
  return [K, IgnoreMeta, IgnoreConcrete](const std::vector<MatchSite> &Sites,
                                         const StmtPtr &) {
    if (K >= Sites.size())
      return -1;
    if (IgnoreConcrete) {
      IgnoreConcrete->clear();
      for (Symbol M : IgnoreMeta) {
        Symbol C = Sites[K].B.varOf(M);
        if (!C.empty())
          IgnoreConcrete->insert(C);
      }
    }
    return static_cast<int>(K);
  };
}

struct RunOutcome {
  enum Kind { Agree, BothTrapped, Inconclusive, Diverge } K = Agree;
  std::string Detail;
};

/// Final-state agreement modulo the unobservable variables (dead loop
/// indices, fresh After-side locals).
bool statesMatch(const State &A, const State &B,
                 const std::set<Symbol> &Ignore) {
  std::map<Symbol, int64_t> SA = A.scalars(), SB = B.scalars();
  for (Symbol V : Ignore) {
    SA.erase(V);
    SB.erase(V);
  }
  return SA == SB && A.arrays() == B.arrays();
}

RunOutcome compareRuns(const StmtPtr &Original, const StmtPtr &Optimized,
                       const State &Initial, uint64_t Fuel,
                       const std::set<Symbol> &Ignore) {
  InterpOptions IO;
  IO.Fuel = Fuel;
  ExecResult A = run(Original, Initial, IO);
  ExecResult B = run(Optimized, Initial, IO);
  RunOutcome Out;
  if (A.ok() && B.ok()) {
    if (statesMatch(A.Final, B.Final, Ignore)) {
      Out.K = RunOutcome::Agree;
    } else {
      Out.K = RunOutcome::Diverge;
      Out.Detail = "original ends in " + A.Final.str() +
                   ", optimized ends in " + B.Final.str();
    }
    return Out;
  }
  if (A.Status == B.Status) {
    Out.K = RunOutcome::BothTrapped;
    return Out;
  }
  Out.K = RunOutcome::Inconclusive;
  return Out;
}

/// Per-program slice of the campaign; merged into DiffSummary in index
/// order so --jobs never changes the result.
struct ProgramResult {
  uint64_t MatchSites = 0;
  uint64_t Applications = 0;
  uint64_t StatesRun = 0;
  uint64_t Agreements = 0;
  uint64_t BothTrapped = 0;
  uint64_t Inconclusive = 0;
  uint64_t Divergences = 0;
  uint64_t SoundnessBugs = 0;
  std::vector<DiffFinding> Findings;
};

/// Finds a divergence witness for (program, rule, state): applies the
/// rule at each surviving site and reruns. Fills \p Opt with the
/// diverging rewrite. Used both as the minimizer predicate and to
/// re-derive the witness after shrinking.
bool divergesSomewhere(const StmtPtr &Program, const RuleVerdict &V,
                       const State &Initial, const DiffOptions &Options,
                       StmtPtr *Opt, std::string *Detail) {
  EngineOptions EO;
  EO.RequiredDeadVars = V.RequiredDeadVars;
  for (uint32_t K = 0; K < Options.MaxSitesPerRule; ++K) {
    bool Changed = false;
    std::set<Symbol> Ignore;
    StmtPtr Rewritten =
        applyRule(Program, V.Applied, pickSite(K, V.IgnoreMeta, &Ignore), EO,
                  Changed);
    if (!Changed)
      break; // Site K (and beyond) does not survive.
    RunOutcome O =
        compareRuns(Program, Rewritten, Initial, Options.Fuel, Ignore);
    if (O.K == RunOutcome::Diverge) {
      if (Opt)
        *Opt = Rewritten;
      if (Detail)
        *Detail = O.Detail;
      return true;
    }
  }
  return false;
}

void recordFinding(ProgramResult &PR, const RuleVerdict &V,
                   const StmtPtr &Program, const State &Initial,
                   const DiffOptions &Options) {
  StmtPtr Witness = Program;
  if (Options.MinimizeFindings)
    Witness = minimizeProgram(Witness, [&](const StmtPtr &Candidate) {
      return divergesSomewhere(Candidate, V, Initial, Options, nullptr,
                               nullptr);
    });
  StmtPtr Opt;
  std::string Detail;
  if (!divergesSomewhere(Witness, V, Initial, Options, &Opt, &Detail))
    return; // Cannot happen (predicate held); stay safe regardless.

  DiffFinding F;
  F.RuleName = V.R->Name;
  F.RuleText = V.Text;
  F.Original = printStmt(Witness);
  F.Optimized = printStmt(Opt);
  F.StateText = renderStateLine(Initial);
  F.Detail = Detail;
  F.RuleProved = V.Proved;
  PR.Findings.push_back(std::move(F));
}

ProgramResult runOneProgram(uint64_t Index,
                            const std::vector<RuleVerdict> &Verdicts,
                            const DiffOptions &Options) {
  Rng R(Rng::mix(Options.Seed, Index));
  ProgramResult PR;

  // Cycle templates through the rule corpus (one free-form program per
  // cycle), so every rule keeps seeing fragments it can match.
  const RuleVerdict *TemplateRule =
      Verdicts.empty() || Index % (Verdicts.size() + 1) == Verdicts.size()
          ? nullptr
          : &Verdicts[Index % (Verdicts.size() + 1)];
  RuleTemplate T;
  if (TemplateRule)
    T = instantiateRuleLhs(*TemplateRule->R, R, Options.Gen);
  StmtPtr Program =
      generateProgram(R, Options.Gen, TemplateRule ? &T : nullptr);

  for (const RuleVerdict &V : Verdicts) {
    if (!V.Proved && !Options.AssumeProved)
      continue;
    std::vector<MatchSite> Sites = findMatches(V.R->Before, Program);
    PR.MatchSites += Sites.size();
    if (Sites.empty())
      continue;

    EngineOptions EO;
    EO.RequiredDeadVars = V.RequiredDeadVars;
    uint32_t SiteCap = Options.MaxSitesPerRule;
    for (uint32_t K = 0; K < SiteCap; ++K) {
      bool Changed = false;
      std::set<Symbol> Ignore;
      StmtPtr Rewritten =
          applyRule(Program, V.Applied, pickSite(K, V.IgnoreMeta, &Ignore),
                    EO, Changed);
      if (!Changed)
        break;
      ++PR.Applications;
      for (uint32_t S = 0; S < Options.StatesPerApplication; ++S) {
        State Initial = generateState(
            R, Stmt::mkSeq({Program, Rewritten}), Options.Gen);
        if (!V.Proved && !V.ModelBias.empty() && S % 2 == 1)
          biasStateWithModel(Initial, V.ModelBias);
        ++PR.StatesRun;
        RunOutcome O =
            compareRuns(Program, Rewritten, Initial, Options.Fuel, Ignore);
        switch (O.K) {
        case RunOutcome::Agree:
          ++PR.Agreements;
          break;
        case RunOutcome::BothTrapped:
          ++PR.BothTrapped;
          break;
        case RunOutcome::Inconclusive:
          ++PR.Inconclusive;
          break;
        case RunOutcome::Diverge:
          ++PR.Divergences;
          if (V.Proved)
            ++PR.SoundnessBugs;
          recordFinding(PR, V, Program, Initial, Options);
          break;
        }
      }
    }
  }
  return PR;
}

} // namespace

DiffSummary pec::fuzz::runDifferential(const RuleFile &Rules,
                                       const DiffOptions &Options) {
  DiffSummary Summary;

  // Phase 1: the checker's once-and-for-all verdict per rule, with the
  // wall-clock query budget so no generated obligation can hang the run.
  std::vector<RuleVerdict> Verdicts(Rules.Rules.size());
  PecOptions PO;
  PO.Atp.QueryBudgetMs = Options.QueryBudgetMs;
  PO.UserFacts = Rules.Facts;
  PO.Diagnose = true;
  for (size_t I = 0; I < Rules.Rules.size(); ++I) {
    RuleVerdict &V = Verdicts[I];
    V.R = &Rules.Rules[I];
    V.Applied = specializeFreeExprMetas(*V.R);
    V.Text = printRule(*V.R);
    PecResult P = proveRule(*V.R, PO);
    V.Proved = P.Proved;
    V.RequiredDeadVars = P.RequiredDeadVars;
    V.IgnoreMeta = P.RequiredDeadVars;
    MetaVars MB, MA;
    collectMetaVars(V.R->Before, MB);
    collectMetaVars(V.R->After, MA);
    for (Symbol M : MA.VarVars)
      if (!MB.VarVars.count(M))
        V.IgnoreMeta.insert(M);
    if (!P.Proved && P.Diagnosis)
      for (const AtpModelEntry &E : P.Diagnosis->Model.Values)
        V.ModelBias.emplace_back(E.Term, E.Value);
    ++(P.Proved ? Summary.RulesProved : Summary.RulesRejected);
  }

  // Phase 2: the program campaign, parallel over program indices with
  // per-index result slots (merged in order: deterministic under --jobs).
  std::vector<ProgramResult> Results(Options.Programs);
  unsigned Jobs = Options.Jobs == 0 ? 1 : Options.Jobs;
  if (Jobs > 1 && Options.Programs > 1) {
    ThreadPool Pool(Jobs);
    TaskGroup Group(Pool);
    for (uint64_t I = 0; I < Options.Programs; ++I)
      Group.spawn([I, &Results, &Verdicts, &Options] {
        Results[I] = runOneProgram(I, Verdicts, Options);
      });
    Group.wait();
  } else {
    for (uint64_t I = 0; I < Options.Programs; ++I)
      Results[I] = runOneProgram(I, Verdicts, Options);
  }

  for (const ProgramResult &PR : Results) {
    ++Summary.ProgramsGenerated;
    Summary.MatchSites += PR.MatchSites;
    Summary.Applications += PR.Applications;
    Summary.StatesRun += PR.StatesRun;
    Summary.Agreements += PR.Agreements;
    Summary.BothTrapped += PR.BothTrapped;
    Summary.Inconclusive += PR.Inconclusive;
    Summary.Divergences += PR.Divergences;
    Summary.SoundnessBugs += PR.SoundnessBugs;
    for (const DiffFinding &F : PR.Findings)
      if (Summary.Findings.size() < Options.MaxFindings)
        Summary.Findings.push_back(F);
  }
  return Summary;
}

std::string pec::fuzz::summaryJson(const DiffSummary &S) {
  auto Escape = [](const std::string &Text) {
    std::string Out;
    for (char C : Text) {
      switch (C) {
      case '"': Out += "\\\""; break;
      case '\\': Out += "\\\\"; break;
      case '\n': Out += "\\n"; break;
      case '\t': Out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(C) < 0x20) {
          char Buf[8];
          std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
          Out += Buf;
        } else {
          Out += C;
        }
      }
    }
    return Out;
  };
  std::ostringstream OS;
  OS << "{\"schema\":\"pec-fuzz-v1\""
     << ",\"programs_generated\":" << S.ProgramsGenerated
     << ",\"match_sites\":" << S.MatchSites
     << ",\"applications\":" << S.Applications
     << ",\"states_run\":" << S.StatesRun
     << ",\"agreements\":" << S.Agreements
     << ",\"both_trapped\":" << S.BothTrapped
     << ",\"inconclusive\":" << S.Inconclusive
     << ",\"divergences\":" << S.Divergences
     << ",\"soundness_bugs\":" << S.SoundnessBugs
     << ",\"rules_proved\":" << S.RulesProved
     << ",\"rules_rejected\":" << S.RulesRejected
     << ",\"findings\":[";
  for (size_t I = 0; I < S.Findings.size(); ++I) {
    const DiffFinding &F = S.Findings[I];
    OS << (I ? "," : "") << "{\"rule\":\"" << Escape(F.RuleName)
       << "\",\"rule_proved\":" << (F.RuleProved ? "true" : "false")
       << ",\"state\":\"" << Escape(F.StateText) << "\",\"original\":\""
       << Escape(F.Original) << "\",\"optimized\":\"" << Escape(F.Optimized)
       << "\",\"detail\":\"" << Escape(F.Detail) << "\"}";
  }
  OS << "]}";
  return OS.str();
}
