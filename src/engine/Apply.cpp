//===- Apply.cpp - Rule application engine ---------------------------------------===//

#include "engine/Apply.h"

#include "interp/Interp.h"
#include "lang/AstOps.h"
#include "lang/Printer.h"
#include "logic/Lowering.h"
#include "pec/Pec.h"
#include "solver/Atp.h"
#include "support/Trace.h"

#include <cctype>
#include <map>
#include <mutex>

using namespace pec;

namespace {

//===----------------------------------------------------------------------===//
// Array access harvesting and ATP-backed disjointness
//===----------------------------------------------------------------------===//

struct ArrayAccess {
  Symbol Array;
  ExprPtr Index;
  bool IsWrite = false;
};

void collectAccessesExpr(const ExprPtr &E, std::vector<ArrayAccess> &Out) {
  switch (E->kind()) {
  case ExprKind::ArrayRead:
    Out.push_back(ArrayAccess{E->name(), E->index(), false});
    collectAccessesExpr(E->index(), Out);
    return;
  case ExprKind::Binary:
    collectAccessesExpr(E->lhs(), Out);
    collectAccessesExpr(E->rhs(), Out);
    return;
  case ExprKind::Unary:
    collectAccessesExpr(E->lhs(), Out);
    return;
  default:
    return;
  }
}

void collectAccesses(const StmtPtr &S, std::vector<ArrayAccess> &Out) {
  forEachStmt(S, [&Out](const StmtPtr &N) {
    switch (N->kind()) {
    case StmtKind::Assign:
      if (N->target().isArrayElem()) {
        Out.push_back(ArrayAccess{N->target().Name, N->target().Index, true});
        collectAccessesExpr(N->target().Index, Out);
      }
      collectAccessesExpr(N->value(), Out);
      break;
    case StmtKind::Assume:
    case StmtKind::If:
    case StmtKind::While:
      collectAccessesExpr(N->cond(), Out);
      break;
    case StmtKind::For:
      collectAccessesExpr(N->init(), Out);
      collectAccessesExpr(N->cond(), Out);
      break;
    default:
      break;
    }
  });
}

/// Scalar (non-array) read/write sets: array names are removed so array
/// conflicts can be refined index-wise.
void scalarSets(const StmtPtr &S, std::set<Symbol> &Reads,
                std::set<Symbol> &Writes) {
  readSet(S, Reads);
  writeSet(S, Writes);
  std::vector<ArrayAccess> Accesses;
  collectAccesses(S, Accesses);
  for (const ArrayAccess &A : Accesses) {
    Reads.erase(A.Array);
    Writes.erase(A.Array);
  }
}

/// ATP context for index-disjointness queries. Index expressions are
/// lowered at a shared symbolic state; `Shift` meta-markers (from
/// quantified commute templates) become fresh integer constants.
class DisjointnessChecker {
public:
  DisjointnessChecker() : Prover(Arena), Low(Arena, Env) {
    S0 = Arena.mkSymConst(Symbol::get("s$engine"), Sort::State);
  }

  /// Proves that \p A and \p B can never denote the same index.
  bool alwaysDistinct(const ExprPtr &A, const ExprPtr &B) {
    if (A->isParameterized() || B->isParameterized())
      return false;
    TermId Ta = Low.lowerExprInt(S0, A);
    TermId Tb = Low.lowerExprInt(S0, B);
    if (!Low.drainPendingDefs().empty())
      return false;
    return Prover
        .query(AtpQuery::validity(
            Formula::mkNot(Formula::mkEq(Arena, Ta, Tb))))
        .Verdict;
  }

private:
  TermArena Arena;
  LoweringEnv Env;
  Atp Prover;
  Lowering Low;
  TermId S0 = InvalidTerm;
};

/// Do the concrete fragments \p A and \p B commute? Conservative:
/// no scalar conflicts, and every array write/access conflict is between
/// provably distinct indices.
bool fragmentsCommute(const StmtPtr &A, const StmtPtr &B,
                      DisjointnessChecker &Disjoint) {
  std::set<Symbol> ReadsA, WritesA, ReadsB, WritesB;
  scalarSets(A, ReadsA, WritesA);
  scalarSets(B, ReadsB, WritesB);
  for (Symbol W : WritesA)
    if (ReadsB.count(W) || WritesB.count(W))
      return false;
  for (Symbol W : WritesB)
    if (ReadsA.count(W))
      return false;

  std::vector<ArrayAccess> AccA, AccB;
  collectAccesses(A, AccA);
  collectAccesses(B, AccB);
  for (const ArrayAccess &X : AccA) {
    for (const ArrayAccess &Y : AccB) {
      if (X.Array != Y.Array || (!X.IsWrite && !Y.IsWrite))
        continue;
      if (!Disjoint.alwaysDistinct(X.Index, Y.Index))
        return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Side-condition checking
//===----------------------------------------------------------------------===//

class SideCondChecker {
public:
  SideCondChecker(const Binding &B, const EngineOptions &Options)
      : B(B), Options(Options) {}

  bool check(const SideCondPtr &C) { return checkRec(C, /*Bound=*/{}); }

private:
  StmtPtr instantiateFragment(const StmtPtr &MetaRef,
                              const std::vector<Symbol> &Bound) {
    if (!Bound.empty()) {
      // Quantified statement reference: instantiate with the bound
      // variables replaced by fresh placeholder names so disjointness
      // queries see independent index values.
      Binding Extended = B;
      for (Symbol V : Bound)
        if (!Extended.Vars.count(V))
          Extended.Vars.emplace(
              V, Symbol::get("$q$" + std::string(V.str())));
      return instantiateStmt(MetaRef, Extended);
    }
    return instantiateStmt(MetaRef, B);
  }

  bool oracle(const SideCond &Atom, const std::vector<Symbol> &Bound) {
    if (!Options.Oracle)
      return false;
    Binding Extended = B;
    for (Symbol V : Bound)
      if (!Extended.Vars.count(V))
        Extended.Vars.emplace(V, Symbol::get("$q$" + std::string(V.str())));
    std::vector<std::string> Args;
    for (const FactArg &A : Atom.args()) {
      if (A.isExpr())
        Args.push_back(printExpr(instantiateExpr(A.E, Extended)));
      else
        Args.push_back(printStmt(instantiateStmt(A.S, Extended)));
    }
    return Options.Oracle(std::string(Atom.factName().str()), Args);
  }

  bool checkRec(const SideCondPtr &C, const std::vector<Symbol> &Bound) {
    switch (C->kind()) {
    case SideCondKind::True:
      return true;
    case SideCondKind::And: {
      for (const SideCondPtr &Child : C->children())
        if (!checkRec(Child, Bound))
          return false;
      return true;
    }
    case SideCondKind::Or: {
      for (const SideCondPtr &Child : C->children())
        if (checkRec(Child, Bound))
          return true;
      return false;
    }
    case SideCondKind::Not:
      return false; // Cannot refute conservatively.
    case SideCondKind::Forall: {
      std::vector<Symbol> Inner = Bound;
      for (Symbol V : C->boundVars())
        Inner.push_back(V);
      return checkRec(C->children()[0], Inner);
    }
    case SideCondKind::Atom:
      return checkAtom(*C, Bound);
    }
    return false;
  }

  bool checkAtom(const SideCond &Atom, const std::vector<Symbol> &Bound) {
    std::string_view Fact = Atom.factName().str();
    const std::vector<FactArg> &Args = Atom.args();

    if (Fact == "DoesNotModify" || Fact == "DoesNotAccess") {
      StmtPtr S = instantiateFragment(Args[0].S, Bound);
      ExprPtr X = instantiateExpr(Args[1].E, B);
      std::set<Symbol> Writes, Targets;
      writeSet(S, Writes);
      collectVars(X, Targets);
      for (Symbol T : Targets)
        if (Writes.count(T))
          return false;
      if (Fact == "DoesNotAccess") {
        std::set<Symbol> Reads;
        readSet(S, Reads);
        for (Symbol T : Targets)
          if (Reads.count(T))
            return false;
      }
      return true;
    }

    if (Fact == "DoesNotUse") {
      ExprPtr E = instantiateExpr(Args[0].E, B);
      ExprPtr X = instantiateExpr(Args[1].E, B);
      std::set<Symbol> Reads, Targets;
      collectVars(E, Reads);
      collectVars(X, Targets);
      for (Symbol T : Targets)
        if (Reads.count(T))
          return false;
      return true;
    }

    if (Fact == "ConstExpr") {
      ExprPtr E = instantiateExpr(Args[0].E, B);
      std::set<Symbol> Reads;
      collectVars(E, Reads);
      return Reads.empty();
    }

    if (Fact == "StrictlyPositive") {
      ExprPtr E = instantiateExpr(Args[0].E, B);
      // Constant expressions fold: evaluate in the empty state.
      std::set<Symbol> Reads;
      collectVars(E, Reads);
      if (Reads.empty()) {
        bool Div = false;
        int64_t V = evalExpr(E, State(), Div);
        if (!Div)
          return V > 0;
      }
      return oracle(Atom, Bound);
    }

    if (Fact == "Commute") {
      StmtPtr A = instantiateFragment(Args[0].S, Bound);
      StmtPtr C2 = instantiateFragment(Args[1].S, Bound);
      if (fragmentsCommute(A, C2, Disjoint))
        return true;
      return oracle(Atom, Bound);
    }

    if (Fact == "Idempotent") {
      StmtPtr S = instantiateStmt(Args[0].S, B);
      // Simple shape: a single assignment whose value ignores its target.
      if (S->kind() == StmtKind::Assign && !S->target().isArrayElem()) {
        std::set<Symbol> Reads;
        readSet(S, Reads);
        if (!Reads.count(S->target().Name))
          return true;
      }
      return oracle(Atom, Bound);
    }

    if (Fact == "StableUnder") {
      StmtPtr S1 = instantiateStmt(Args[0].S, B);
      StmtPtr S2 = instantiateStmt(Args[1].S, B);
      // If S2 touches none of S1's reads or writes, a no-op S1 stays a
      // no-op.
      std::set<Symbol> Reads1, Writes1, Writes2;
      readSet(S1, Reads1);
      writeSet(S1, Writes1);
      writeSet(S2, Writes2);
      bool Disjoint2 = true;
      for (Symbol W : Writes2)
        if (Reads1.count(W) || Writes1.count(W))
          Disjoint2 = false;
      if (Disjoint2)
        return true;
      return oracle(Atom, Bound);
    }

    return oracle(Atom, Bound);
  }

  const Binding &B;
  const EngineOptions &Options;
  DisjointnessChecker Disjoint;
};

/// The verification treats `S1[e]` as evaluating `e` once at the
/// fragment's entry, but instantiation substitutes `e` textually at every
/// hole — faithful only when the fragment modifies none of `e`'s
/// variables. Checks every hole-bearing meta-statement reference in \p P.
bool holeArgsStableIn(const StmtPtr &P, const Binding &B) {
  bool Ok = true;
  forEachStmt(P, [&](const StmtPtr &N) {
    if (!Ok || N->kind() != StmtKind::MetaStmt || N->holeArgs().empty())
      return;
    auto It = B.Stmts.find(N->metaName());
    if (It == B.Stmts.end()) {
      Ok = false;
      return;
    }
    std::set<Symbol> TemplateWrites;
    writeSet(It->second, TemplateWrites);
    for (const ExprPtr &H : N->holeArgs()) {
      std::set<Symbol> ArgVars;
      collectVars(instantiateExpr(H, B), ArgVars);
      for (Symbol V : ArgVars)
        if (TemplateWrites.count(V))
          Ok = false;
    }
  });
  return Ok;
}

/// A rule's right-hand side may introduce variable meta-variables that do
/// not occur on the left (e.g. loop distribution's second index): bind them
/// to fresh concrete names, distinct from every variable of the program and
/// every existing binding (matching the proof's treatment of meta-variables
/// as distinct names).
void bindFreshRhsVars(const Rule &R, const StmtPtr &Program, Binding &B) {
  MetaVars After;
  collectMetaVars(R.After, After);
  std::set<Symbol> Taken;
  collectVars(Program, Taken);
  for (const auto &[Meta, Concrete] : B.Vars) {
    (void)Meta;
    Taken.insert(Concrete);
  }
  for (Symbol V : After.VarVars) {
    if (B.Vars.count(V))
      continue;
    std::string Base(V.str());
    for (char &C : Base)
      C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    std::string Name = Base;
    for (int K = 1; Taken.count(Symbol::get(Name)); ++K)
      Name = Base + std::to_string(K);
    Symbol Fresh = Symbol::get(Name);
    Taken.insert(Fresh);
    B.Vars.emplace(V, Fresh);
  }
}

/// Conservative deadness: the concrete variable is read nowhere in
/// \p Program outside the matched fragment (approximated by erasing the
/// fragment).
bool deadOutsideFragment(const StmtPtr &Program, const MatchSite &Site,
                         Symbol Var) {
  StmtPtr Without = rewriteAt(Program, Site, Stmt::mkSkip());
  std::set<Symbol> Reads;
  readSet(Without, Reads);
  return !Reads.count(Var);
}

} // namespace

int pec::pickFirst(const std::vector<MatchSite> &Sites, const StmtPtr &) {
  return Sites.empty() ? -1 : 0;
}

bool pec::fragmentsIndependent(const StmtPtr &A, const StmtPtr &B) {
  DisjointnessChecker Disjoint;
  return fragmentsCommute(A, B, Disjoint);
}

bool pec::checkSideCondition(const Rule &R, const Binding &B,
                             const EngineOptions &Options) {
  SideCondChecker Checker(B, Options);
  return Checker.check(R.Cond);
}

StmtPtr pec::applyRule(const StmtPtr &Program, const Rule &R,
                       const ProfitabilityFn &Pick,
                       const EngineOptions &Options, bool &Changed) {
  Changed = false;
  trace::Span ApplySpan("engine.applyRule");
  ApplySpan.attr("rule", R.Name);
  StmtPtr Normalized = normalizeStmt(Program);
  std::vector<MatchSite> Sites = findMatches(R.Before, Normalized);
  ApplySpan.attr("match_sites", static_cast<uint64_t>(Sites.size()));

  std::vector<MatchSite> Valid;
  for (MatchSite &Site : Sites) {
    bindFreshRhsVars(R, Normalized, Site.B);
    // Skip identity rewrites (degenerate matches where meta-variables
    // absorb fragments so that the output equals the input).
    if (stmtEquals(normalizeStmt(instantiateStmt(R.After, Site.B)),
                   normalizeStmt(instantiateStmt(R.Before, Site.B))))
      continue;
    if (!checkSideCondition(R, Site.B, Options))
      continue;
    // Hole arguments are evaluated once at fragment entry in the proof's
    // semantics; textual substitution must not observe fragment writes.
    if (!holeArgsStableIn(R.After, Site.B))
      continue;
    bool DeadOk = true;
    for (Symbol MetaVar : Options.RequiredDeadVars) {
      Symbol Concrete = Site.B.varOf(MetaVar);
      if (!Concrete.empty() &&
          !deadOutsideFragment(Normalized, Site, Concrete))
        DeadOk = false;
    }
    if (!DeadOk)
      continue;
    Valid.push_back(std::move(Site));
  }
  if (Valid.empty())
    return Normalized;

  int Choice = Pick ? Pick(Valid, Normalized) : pickFirst(Valid, Normalized);
  if (Choice < 0 || static_cast<size_t>(Choice) >= Valid.size())
    return Normalized;

  const MatchSite &Site = Valid[static_cast<size_t>(Choice)];
  StmtPtr Replacement = instantiateStmt(R.After, Site.B);
  Changed = true;
  ApplySpan.attr("applications", uint64_t(1));
  return rewriteAt(Normalized, Site, Replacement);
}

StmtPtr pec::applyRuleToFixpoint(const StmtPtr &Program, const Rule &R,
                                 const ProfitabilityFn &Pick,
                                 const EngineOptions &Options,
                                 unsigned MaxApplications) {
  StmtPtr Current = Program;
  for (unsigned I = 0; I < MaxApplications; ++I) {
    bool Changed = false;
    Current = applyRule(Current, R, Pick, Options, Changed);
    if (!Changed)
      break;
  }
  return Current;
}

StagedResult pec::applyRuleStaged(const StmtPtr &Program, const Rule &R,
                                  const ProfitabilityFn &Pick,
                                  const EngineOptions &Options) {
  StagedResult Result;
  Result.Program = normalizeStmt(Program);

  // Stage 1: once-and-for-all (cache the verdict per rule name + text).
  // Mutex rather than thread confinement: the apply path is sequential
  // today, but this global is the one engine-side mutable shared state the
  // parallelism audit found (docs/PARALLELISM.md), so it is guarded. The
  // lock is not held across proveRule — concurrent callers may both prove
  // the same rule once, which is wasteful but sound.
  static std::mutex ProofCacheMutex;
  static std::map<std::string, bool> ProofCache;
  std::string Key = R.Name + "\n" + printRule(R);
  bool ProvedOnce = false;
  bool Cached = false;
  {
    std::lock_guard<std::mutex> Lock(ProofCacheMutex);
    auto It = ProofCache.find(Key);
    if (It != ProofCache.end()) {
      ProvedOnce = It->second;
      Cached = true;
    }
  }
  if (!Cached) {
    PecResult Proof = proveRule(R);
    ProvedOnce = Proof.Proved;
    std::lock_guard<std::mutex> Lock(ProofCacheMutex);
    ProofCache.emplace(std::move(Key), ProvedOnce);
  }

  bool Changed = false;
  StmtPtr Rewritten = applyRule(Result.Program, R, Pick, Options, Changed);
  if (!Changed)
    return Result;
  if (ProvedOnce) {
    Result.Program = Rewritten;
    Result.Changed = true;
    return Result;
  }

  // Stage 2: translation-validate this concrete application; revert on
  // failure.
  PecResult Tv = proveEquivalence(Result.Program, Rewritten);
  if (Tv.Proved) {
    Result.Program = Rewritten;
    Result.Changed = true;
    Result.ValidatedAtRuntime = true;
  }
  return Result;
}

StmtPtr pec::swPipe(const StmtPtr &Program, const Rule &T1, const Rule &T2,
                    const ProfitabilityFn &PiSw,
                    const EngineOptions &Options) {
  StmtPtr Current = Program;
  for (unsigned Round = 0; Round < 8; ++Round) {
    bool Changed = false;
    StmtPtr Next = applyRule(Current, T1, PiSw, Options, Changed);
    if (!Changed)
      return Current;
    // Apply the reordering rule everywhere before the next retiming round.
    Current = applyRuleToFixpoint(Next, T2, pickFirst, Options);
  }
  return Current;
}
