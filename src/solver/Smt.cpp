//===- Smt.cpp - Incremental DPLL(T) session ----------------------------------===//

#include "solver/Smt.h"

#include "support/Metrics.h"

#include <algorithm>
#include <chrono>
#include <functional>

using namespace pec;

//===----------------------------------------------------------------------===//
// QuickXplain conflict minimization
//===----------------------------------------------------------------------===//

std::vector<TheoryLit>
pec::minimizeTheoryConflict(TermArena &Arena, std::vector<TheoryLit> Lits) {
  return minimalTheoryCore(Lits, [&](const std::vector<TheoryLit> &Ls) {
    if (Ls.empty())
      return false;
    return !TheorySolver::consistent(Arena, Ls, relevantTerms(Arena, Ls));
  });
}

//===----------------------------------------------------------------------===//
// Lemma engine
//===----------------------------------------------------------------------===//

void SmtSession::scanFormulaTerms(const FormulaPtr &F,
                                  std::vector<TermId> &Work) {
  if (F->isAtom()) {
    for (TermId T : {F->lhsTerm(), F->rhsTerm()})
      if (ScannedTerms.insert(T).second)
        Work.push_back(T);
    return;
  }
  for (const FormulaPtr &C : F->children())
    scanFormulaTerms(C, Work);
}

void SmtSession::processTermQueue(std::vector<TermId> &Work) {
  while (!Work.empty()) {
    TermId T = Work.back();
    Work.pop_back();
    // A copy, not a reference: the mk* calls below can grow the arena's
    // node vector and move the node.
    const TermNode N = Arena.node(T);
    for (TermId A : N.Args)
      if (ScannedTerms.insert(A).second)
        Work.push_back(A);

    std::vector<FormulaPtr> New;
    if (N.Op == TermOp::SelA && Arena.node(N.Args[0]).Op == TermOp::StoA &&
        ExpandedArray.insert(T).second) {
      // Array read-over-write: selA(stoA(a, i, v), j) reads v when i = j
      // and selA(a, j) otherwise. The inner read may itself be a
      // read-over-write — it lands on the queue and expands in turn.
      const TermNode &ArrNode = Arena.node(N.Args[0]);
      TermId Inner = ArrNode.Args[0];
      TermId StoredIdx = ArrNode.Args[1];
      TermId StoredVal = ArrNode.Args[2];
      TermId ReadIdx = N.Args[1];
      TermId InnerRead = Arena.mkSelA(Inner, ReadIdx);
      FormulaPtr IdxEq = Formula::mkEq(Arena, StoredIdx, ReadIdx);
      New.push_back(Formula::mkAnd(
          Formula::mkImplies(IdxEq, Formula::mkEq(Arena, T, StoredVal)),
          Formula::mkImplies(Formula::mkNot(IdxEq),
                             Formula::mkEq(Arena, T, InnerRead))));
    } else if (N.Op == TermOp::Apply &&
               (N.Name.str() == "div$" || N.Name.str() == "mod$")) {
      // Division/modulo by a nonzero constant: the C truncation-division
      // axioms (matching the interpreter): a = k*q + r with r in
      // [0, |k|-1] for a >= 0 and in [-(|k|-1), 0] for a <= 0.
      const TermNode &Divisor = Arena.node(N.Args[1]);
      if (Divisor.Op == TermOp::IntConst && Divisor.IntVal != 0 &&
          ExpandedDivMod.insert(T).second) {
        int64_t K = Divisor.IntVal;
        TermId A = N.Args[0];
        TermId Q = Arena.mkApply(Symbol::get("div$"), {A, N.Args[1]},
                                 Sort::Int);
        TermId R = Arena.mkSub(A, Arena.mkMul(Arena.mkInt(K), Q));
        TermId Zero = Arena.mkInt(0);
        TermId AbsKm1 = Arena.mkInt((K > 0 ? K : -K) - 1);
        New.push_back(Formula::mkImplies(
            Formula::mkLe(Arena, Zero, A),
            Formula::mkAnd(Formula::mkLe(Arena, Zero, R),
                           Formula::mkLe(Arena, R, AbsKm1))));
        New.push_back(Formula::mkImplies(
            Formula::mkLe(Arena, A, Zero),
            Formula::mkAnd(Formula::mkLe(Arena, Arena.mkNeg(AbsKm1), R),
                           Formula::mkLe(Arena, R, Zero))));
        if (N.Name.str() == "mod$")
          New.push_back(Formula::mkEq(Arena, T, R));
      }
    }

    for (const FormulaPtr &L : New) {
      // The lemma is valid in the intended semantics, so it is asserted
      // permanently; the trigger map lets collectRelevantAtoms pull its
      // atoms into the cone of every query that reaches T.
      TriggerLemmas[T].push_back(L);
      scanFormulaTerms(L, Work);
      Sat.addClause({encode(L)});
    }
  }
}

void SmtSession::expandLemmasFor(const FormulaPtr &F) {
  std::vector<TermId> Work;
  scanFormulaTerms(F, Work);
  processTermQueue(Work);
}

//===----------------------------------------------------------------------===//
// Tseitin encoding
//===----------------------------------------------------------------------===//

Lit SmtSession::trueLit() {
  if (!HasTrueLit) {
    uint32_t V = Sat.newVar();
    TrueLit = Lit(V, false);
    Sat.addClause({TrueLit});
    HasTrueLit = true;
  }
  return TrueLit;
}

Lit SmtSession::atomLit(const FormulaPtr &A) {
  AtomKey Key = atomKey(A);
  auto It = AtomVars.find(Key);
  if (It != AtomVars.end())
    return Lit(It->second, false);
  uint32_t Var = Sat.newVar();
  AtomVars.emplace(Key, Var);
  AtomOfVar[Var] = A;
  AtomOrder.push_back(Var);
  return Lit(Var, false);
}

Lit SmtSession::encode(const FormulaPtr &F) {
  switch (F->kind()) {
  case FormulaKind::True:
    return trueLit();
  case FormulaKind::False:
    return ~trueLit();
  case FormulaKind::Eq:
  case FormulaKind::Le:
  case FormulaKind::Lt:
    return atomLit(F);
  default:
    break;
  }
  auto Cached = EncodeCache.find(F.get());
  if (Cached != EncodeCache.end())
    return Cached->second;

  Lit Out;
  switch (F->kind()) {
  case FormulaKind::Not:
    Out = ~encode(F->children()[0]);
    break;
  case FormulaKind::And: {
    Out = Lit(Sat.newVar(), false);
    std::vector<Lit> LongClause{Out};
    for (const FormulaPtr &C : F->children()) {
      Lit LC = encode(C);
      Sat.addClause({~Out, LC}); // Out -> C.
      LongClause.push_back(~LC);
    }
    Sat.addClause(std::move(LongClause)); // All Cs -> Out.
    break;
  }
  case FormulaKind::Or: {
    Out = Lit(Sat.newVar(), false);
    std::vector<Lit> LongClause{~Out};
    for (const FormulaPtr &C : F->children()) {
      Lit LC = encode(C);
      Sat.addClause({Out, ~LC}); // C -> Out.
      LongClause.push_back(LC);
    }
    Sat.addClause(std::move(LongClause)); // Out -> some C.
    break;
  }
  case FormulaKind::Implies: {
    Lit A = encode(F->children()[0]);
    Lit B = encode(F->children()[1]);
    Out = Lit(Sat.newVar(), false);
    Sat.addClause({~Out, ~A, B});
    Sat.addClause({Out, A});
    Sat.addClause({Out, ~B});
    break;
  }
  case FormulaKind::Iff: {
    Lit A = encode(F->children()[0]);
    Lit B = encode(F->children()[1]);
    Out = Lit(Sat.newVar(), false);
    Sat.addClause({~Out, ~A, B});
    Sat.addClause({~Out, A, ~B});
    Sat.addClause({Out, A, B});
    Sat.addClause({Out, ~A, ~B});
    break;
  }
  default:
    reportFatalError("unhandled formula kind in Tseitin encoding");
  }
  EncodeCache.emplace(F.get(), Out);
  Retained.push_back(F);
  return Out;
}

//===----------------------------------------------------------------------===//
// Relevance cone
//===----------------------------------------------------------------------===//

void SmtSession::collectRelevantAtoms(const std::vector<FormulaPtr> &Roots,
                                      std::vector<char> &Relevant) const {
  Relevant.assign(Sat.numVars(), 0);
  std::vector<const Formula *> FWork;
  std::unordered_set<const Formula *> FSeen;
  std::vector<TermId> TWork;
  std::unordered_set<TermId> TSeen;
  auto PushF = [&](const Formula *F) {
    if (FSeen.insert(F).second)
      FWork.push_back(F);
  };
  for (const FormulaPtr &R : Roots)
    PushF(R.get());
  while (!FWork.empty() || !TWork.empty()) {
    if (!FWork.empty()) {
      const Formula *F = FWork.back();
      FWork.pop_back();
      if (F->isAtom()) {
        auto It = AtomVars.find(
            AtomKey(static_cast<int>(F->kind()), F->lhsTerm(), F->rhsTerm()));
        if (It != AtomVars.end())
          Relevant[It->second] = 1;
        for (TermId T : {F->lhsTerm(), F->rhsTerm()})
          if (TSeen.insert(T).second)
            TWork.push_back(T);
        continue;
      }
      for (const FormulaPtr &C : F->children())
        PushF(C.get());
      continue;
    }
    TermId T = TWork.back();
    TWork.pop_back();
    auto Triggered = TriggerLemmas.find(T);
    if (Triggered != TriggerLemmas.end())
      for (const FormulaPtr &L : Triggered->second)
        PushF(L.get());
    for (TermId A : Arena.node(T).Args)
      if (TSeen.insert(A).second)
        TWork.push_back(A);
  }
}

//===----------------------------------------------------------------------===//
// The DPLL(T) loop
//===----------------------------------------------------------------------===//

void SmtSession::harvestSatStats() {
  Stats.SatConflicts += Sat.numConflicts() - LastConflicts;
  Stats.SatDecisions += Sat.numDecisions() - LastDecisions;
  Stats.Propagations += Sat.numPropagations() - LastPropagations;
  Stats.Restarts += Sat.numRestarts() - LastRestarts;
  Stats.LearnedClauses += Sat.numLearnedClauses() - LastLearned;
  Stats.DeletedClauses += Sat.numDeletedClauses() - LastDeleted;
  LastConflicts = Sat.numConflicts();
  LastDecisions = Sat.numDecisions();
  LastPropagations = Sat.numPropagations();
  LastRestarts = Sat.numRestarts();
  LastLearned = Sat.numLearnedClauses();
  LastDeleted = Sat.numDeletedClauses();
}

void SmtSession::onPush() {
  Th->push();
}

void SmtSession::onPop(uint32_t Levels) {
  Stats.TheoryPops += Levels;
  for (uint32_t I = 0; I < Levels; ++I)
    Th->pop();
}

bool SmtSession::onCheck(const Lit *Begin, const Lit *End, bool Final,
                         std::vector<Lit> &Implied,
                         std::vector<Lit> &Conflict) {
  // Absorb the new trail slice: every relevant atom literal is asserted
  // into the theory trail (required even mid-conflict so pops stay
  // aligned; assertLit latches rather than throws).
  if (!TheoryQuiet) {
    for (const Lit *P = Begin; P != End; ++P) {
      uint32_t Var = P->var();
      if (Var >= RelevantVars.size() || !RelevantVars[Var])
        continue;
      auto It = AtomOfVar.find(Var);
      if (It == AtomOfVar.end())
        continue; // Tseitin gate variable.
      Th->assertLit(TheoryLit{It->second, !P->negated()});
    }
  }
  if (TheoryQuiet)
    return true; // Inert: answer "consistent" blindly (one-sided safe).

  bool Ok;
  if (Final) {
    // Full assignment: the complete EUF + LIA gate.
    ++Stats.TheoryChecks;
    Ok = Th->checkFull();
  } else {
    // Partial assignment: EUF, plus (when enabled) the pivot-free LIA
    // bound probe that catches crossed bounds before any pivoting.
    Ok = Options.LiaBoundPropagation ? Th->checkPartial() : Th->checkEuf();
  }

  if (!Ok) {
    ++Stats.TheoryConflicts;
    if (ConflictBudget == 0) {
      // Give up: treat as satisfiable (safe direction for validity). No
      // model is extracted later: the assignment is theory-inconsistent,
      // so its valuations would be misleading.
      TheoryQuiet = true;
      return true;
    }
    --ConflictBudget;
    std::vector<TheoryLit> Core = Th->conflictCore(Options.MinimizeConflicts);
    pec::metrics::record(pec::metrics::Hist::TheoryConflictSize, Core.size());
    Conflict.reserve(Core.size());
    for (const TheoryLit &L : Core)
      Conflict.push_back(Lit(AtomVars.at(atomKey(L.Atom)), !L.Positive));
    return false;
  }

  if (!Final && Options.TheoryPropagation) {
    // Theory propagation: unassigned relevant atoms the EUF state already
    // decides enter the boolean trail now, with a lazy explanation keyed
    // to the current theory-trail prefix.
    for (uint32_t Var : AtomOrder) {
      if (Var >= RelevantVars.size() || !RelevantVars[Var])
        continue;
      if (Sat.isAssigned(Var))
        continue;
      int Pol = Th->impliedPolarity(AtomOfVar.at(Var));
      if (Pol == 0)
        continue;
      Implied.push_back(Lit(Var, Pol < 0));
      TheoryPropMark[Var] = Th->trail().size();
      ++Stats.TheoryPropagations;
    }
  }
  return true;
}

void SmtSession::explainImplied(Lit L, std::vector<Lit> &Reason) {
  uint32_t Var = L.var();
  const FormulaPtr &Atom = AtomOfVar.at(Var);
  TheoryLit TL{Atom, !L.negated()};
  std::vector<TheoryLit> Ante = Th->explain(TL, TheoryPropMark.at(Var));
  Reason.clear();
  Reason.push_back(L);
  for (const TheoryLit &A : Ante)
    Reason.push_back(Lit(AtomVars.at(atomKey(A.Atom)), A.Positive));
}

bool SmtSession::solve(const std::vector<FormulaPtr> &Roots,
                       TheoryModel *ModelOut, std::vector<size_t> *CoreOut) {
  std::vector<FormulaPtr> Live;
  std::vector<size_t> LiveIdx; // Live[i] == Roots[LiveIdx[i]].
  Live.reserve(Roots.size());
  for (size_t I = 0; I < Roots.size(); ++I) {
    const FormulaPtr &R = Roots[I];
    if (R->kind() == FormulaKind::True)
      continue;
    if (R->kind() == FormulaKind::False) {
      if (CoreOut)
        *CoreOut = {I}; // That root alone is the whole core.
      return false;
    }
    Live.push_back(R);
    LiveIdx.push_back(I);
  }
  if (Live.empty()) {
    if (ModelOut)
      ModelOut->Complete = true; // Trivially satisfiable; nothing to value.
    return true;
  }

  std::vector<Lit> Assumptions;
  Assumptions.reserve(Live.size());
  for (const FormulaPtr &R : Live) {
    expandLemmasFor(R);
    Assumptions.push_back(encode(R));
  }

  collectRelevantAtoms(Live, RelevantVars);

  // The query's theory term cone: subterms of every atom in the relevance
  // cone (polarity is irrelevant for term collection).
  std::vector<TheoryLit> ConeAtoms;
  for (uint32_t Var : AtomOrder)
    if (Var < RelevantVars.size() && RelevantVars[Var])
      ConeAtoms.push_back(TheoryLit{AtomOfVar.at(Var), true});
  std::vector<char> TermMask = relevantTerms(Arena, ConeAtoms);

  // Attach a fresh backtrackable theory solver for this query. setTheory
  // rewinds the SAT core's consumption cursor, so the persistent level-0
  // trail (units from lemmas and learned facts) is re-fed to it.
  TheorySolver QueryTheory(Arena, Options.LiaBoundPropagation);
  QueryTheory.addRelevant(TermMask);
  Th = &QueryTheory;
  ConflictBudget = Options.MaxTheoryConflictsPerQuery;
  TheoryQuiet = false;
  if (Options.QueryBudgetMs > 0)
    Sat.setDeadline(std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(Options.QueryBudgetMs));
  else
    Sat.setDeadline({});
  TheoryPropMark.clear();
  Sat.setTheory(this);
  struct Detach {
    SmtSession &S;
    ~Detach() {
      S.Sat.setTheory(nullptr);
      S.Th = nullptr;
    }
  } Guard{*this};

  if (Sat.solve(Assumptions) == SatResult::Unsat) {
    harvestSatStats();
    if (CoreOut) {
      // Map the failed assumption literals back to root indices. The
      // SAT-level core is already conflict-directed; duplicates of the
      // same encoded literal collapse to the first root that carried it.
      CoreOut->clear();
      for (Lit F : Sat.failedAssumptions())
        for (size_t I = 0; I < Assumptions.size(); ++I)
          if (Assumptions[I] == F) {
            CoreOut->push_back(LiveIdx[I]);
            break;
          }
      std::sort(CoreOut->begin(), CoreOut->end());
      CoreOut->erase(std::unique(CoreOut->begin(), CoreOut->end()),
                     CoreOut->end());
    }
    return false;
  }
  harvestSatStats();
  if (Sat.budgetExhausted())
    ++Stats.BudgetExhausted;
  // A budget-exhausted "Sat" carries no trustworthy boolean model; leave
  // ModelOut incomplete (same contract as a theory-quiet degradation).
  if (ModelOut && !TheoryQuiet && !Sat.budgetExhausted()) {
    // Gather the theory literals this query's cone implies under the
    // boolean model, in atom creation order (deterministic).
    std::vector<TheoryLit> Lits;
    Lits.reserve(AtomOrder.size());
    for (uint32_t Var : AtomOrder)
      if (Var < RelevantVars.size() && RelevantVars[Var])
        Lits.push_back(TheoryLit{AtomOfVar.at(Var), Sat.valueOf(Var)});
    TheorySolver::model(Arena, Lits, relevantTerms(Arena, Lits), *ModelOut);
  }
  return true;
}
