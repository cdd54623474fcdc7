//===- Correlate.cpp - Correlation relation generation --------------------------===//

#include "pec/Correlate.h"

#include "lang/Printer.h"
#include "support/Trace.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

using namespace pec;

//===----------------------------------------------------------------------===//
// Available-condition dataflow (the paper's Post)
//===----------------------------------------------------------------------===//

namespace {

/// Stable key for condition-set operations.
std::string condKey(const ExprPtr &E) { return printExpr(E); }

/// Applies one atomic statement to a condition set.
void transferAtom(const StmtPtr &Atom, const ProofContext &Ctx,
                  std::map<std::string, ExprPtr> &Conds) {
  if (Atom->kind() == StmtKind::Assume) {
    Conds.emplace(condKey(Atom->cond()), Atom->cond());
    return;
  }
  if (Atom->kind() == StmtKind::Skip)
    return;
  // Kill conditions the atom may disturb.
  for (auto It = Conds.begin(); It != Conds.end();) {
    if (Ctx.atomPreservesExpr(Atom, It->second))
      ++It;
    else
      It = Conds.erase(It);
  }
  // `x := e` establishes `x == e` afterwards, provided the assignment does
  // not disturb `e` itself (or the index, for array writes).
  if (Atom->kind() == StmtKind::Assign) {
    const LValue &T = Atom->target();
    bool SelfStable = Ctx.atomPreservesExpr(Atom, Atom->value()) &&
                      (!T.Index || Ctx.atomPreservesExpr(Atom, T.Index));
    if (SelfStable) {
      ExprPtr Lhs = T.isArrayElem()
                        ? Expr::mkArrayRead(T.Name, T.IsMeta, T.Index)
                    : T.IsMeta ? Expr::mkMetaVar(T.Name)
                               : Expr::mkVar(T.Name);
      ExprPtr Eq = Expr::mkBinary(BinOp::Eq, std::move(Lhs), Atom->value());
      Conds.emplace(condKey(Eq), std::move(Eq));
    }
  }
}

} // namespace

ConditionFlow::ConditionFlow(const Cfg &G, const ProofContext &Ctx) {
  // The branch-context dataflow that strengthens seed predicates with
  // available conditions.
  trace::Span FlowSpan("correlate.conditionFlow");
  // Forward must-analysis: meet = intersection, top = "unvisited".
  std::vector<std::optional<std::map<std::string, ExprPtr>>> In(
      G.numLocations());
  In[G.entry()] = std::map<std::string, ExprPtr>();

  std::deque<Location> Work;
  Work.push_back(G.entry());
  while (!Work.empty()) {
    Location L = Work.front();
    Work.pop_front();
    if (!In[L])
      continue;
    for (uint32_t EdgeIdx : G.successors(L)) {
      const CfgEdge &E = G.edge(EdgeIdx);
      std::map<std::string, ExprPtr> Out = *In[L];
      transferAtom(E.Atom, Ctx, Out);
      bool Changed = false;
      if (!In[E.To]) {
        In[E.To] = std::move(Out);
        Changed = true;
      } else {
        // Intersection.
        std::map<std::string, ExprPtr> &Dst = *In[E.To];
        for (auto It = Dst.begin(); It != Dst.end();) {
          if (Out.count(It->first)) {
            ++It;
          } else {
            It = Dst.erase(It);
            Changed = true;
          }
        }
      }
      if (Changed)
        Work.push_back(E.To);
    }
  }

  CondsAt.resize(G.numLocations());
  for (Location L = 0; L < G.numLocations(); ++L)
    if (In[L])
      for (const auto &[Key, Cond] : *In[L]) {
        (void)Key;
        CondsAt[L].push_back(Cond);
      }
}

FormulaPtr ConditionFlow::postCondition(Location L, Lowering &Low,
                                        TermId StateConst) const {
  std::vector<FormulaPtr> Conds;
  for (const ExprPtr &C : CondsAt[L]) {
    FormulaPtr F = Low.lowerExprBool(StateConst, C);
    // Conditions requiring fresh-constant definitions cannot live inside
    // relation predicates (they would be unprovable in consequent
    // position); drop them.
    if (!Low.drainPendingDefs().empty())
      continue;
    Conds.push_back(std::move(F));
  }
  return Formula::mkAnd(std::move(Conds));
}

//===----------------------------------------------------------------------===//
// Correlation relation (paper Sec. 4)
//===----------------------------------------------------------------------===//

namespace {

/// First statement-meta-variable locations reachable from \p From without
/// passing through another one — the targets of the paper's ~>S relation.
std::vector<Location> nextMetaLocations(const Cfg &G, Location From) {
  std::vector<char> IsMeta(G.numLocations(), 0);
  for (Location L : G.metaStmtLocations())
    IsMeta[L] = 1;

  std::vector<char> Visited(G.numLocations(), 0);
  std::vector<Location> Out;
  std::deque<Location> Work;

  // Successors of From (From itself being a meta location does not stop
  // the search: ~>S looks strictly forward).
  auto PushSuccs = [&](Location L) {
    for (uint32_t E : G.successors(L)) {
      Location To = G.edge(E).To;
      if (!Visited[To]) {
        Visited[To] = 1;
        Work.push_back(To);
      }
    }
  };

  PushSuccs(From);
  while (!Work.empty()) {
    Location L = Work.front();
    Work.pop_front();
    if (IsMeta[L]) {
      Out.push_back(L);
      continue; // Do not look past it.
    }
    PushSuccs(L);
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// True if every cycle of \p G passes through a marked stop location.
bool loopsCut(const Cfg &G, const std::vector<char> &Stops) {
  enum Color : char { White, Grey, Black };
  std::vector<char> Colors(G.numLocations(), White);
  for (Location Root = 0; Root < G.numLocations(); ++Root) {
    if (Colors[Root] != White || Stops[Root])
      continue;
    std::vector<std::pair<Location, size_t>> Stack{{Root, 0}};
    Colors[Root] = Grey;
    while (!Stack.empty()) {
      auto &[L, NextSucc] = Stack.back();
      if (NextSucc >= G.successors(L).size()) {
        Colors[L] = Black;
        Stack.pop_back();
        continue;
      }
      Location To = G.edge(G.successors(L)[NextSucc++]).To;
      if (Stops[To])
        continue;
      if (Colors[To] == Grey)
        return false;
      if (Colors[To] == White) {
        Colors[To] = Grey;
        Stack.emplace_back(To, 0);
      }
    }
  }
  return true;
}

/// Loop-head locations (targets of back edges), in location order.
std::vector<Location> loopHeads(const Cfg &G) {
  // Reachability matrix via per-node BFS (graphs are tiny).
  std::vector<Location> Heads;
  for (const CfgEdge &E : G.edges()) {
    // E.To is a head if E.From is reachable from E.To.
    std::vector<char> Visited(G.numLocations(), 0);
    std::deque<Location> Work{E.To};
    Visited[E.To] = 1;
    bool Reaches = false;
    while (!Work.empty() && !Reaches) {
      Location L = Work.front();
      Work.pop_front();
      if (L == E.From) {
        Reaches = true;
        break;
      }
      for (uint32_t Succ : G.successors(L)) {
        Location To = G.edge(Succ).To;
        if (!Visited[To]) {
          Visited[To] = 1;
          Work.push_back(To);
        }
      }
    }
    if (Reaches &&
        std::find(Heads.begin(), Heads.end(), E.To) == Heads.end())
      Heads.push_back(E.To);
  }
  std::sort(Heads.begin(), Heads.end());
  return Heads;
}

} // namespace

CorrelationRelation pec::correlate(const Cfg &P1, const Cfg &P2,
                                   const ProofContext & /*Ctx*/, Lowering &Low,
                                   TermId S1, TermId S2,
                                   const ConditionFlow &F1,
                                   const ConditionFlow &F2) {
  trace::Span SeedSpan("correlate.seed");
  TermArena &A = Low.arena();
  FormulaPtr StatesEqual = Formula::mkEq(A, S1, S2);

  auto Cond = [&](Location L1, Location L2) {
    return Formula::mkAnd({StatesEqual, F1.postCondition(L1, Low, S1),
                           F2.postCondition(L2, Low, S2)});
  };

  CorrelationRelation R;
  R.add(P1.entry(), P2.entry(), StatesEqual);
  R.add(P1.exit(), P2.exit(), StatesEqual);

  // The meta-statement each L_S location is about to execute. Locations are
  // paired only when they precede the *same* meta-variable — the paper's
  // "finds the corresponding point in the other program" (Sec. 2.2); state
  // equality is only meaningful (and only needed) at such pairs.
  auto MetaNameAt = [](const Cfg &G, Location L) {
    for (uint32_t E : G.successors(L))
      if (G.edge(E).Atom->kind() == StmtKind::MetaStmt)
        return G.edge(E).Atom->metaName();
    return Symbol();
  };

  // Fixpoint over Formula (2): pair up reachable meta-statement locations.
  std::deque<std::pair<Location, Location>> Work;
  std::set<std::pair<Location, Location>> Seen;
  Work.emplace_back(P1.entry(), P2.entry());
  Seen.insert(Work.back());

  while (!Work.empty()) {
    auto [L1, L2] = Work.front();
    Work.pop_front();
    std::vector<Location> Next1 = nextMetaLocations(P1, L1);
    std::vector<Location> Next2 = nextMetaLocations(P2, L2);
    for (Location N1 : Next1) {
      for (Location N2 : Next2) {
        // Keep exploring even through non-matching pairs so matching pairs
        // deeper in the programs are still discovered.
        if (Seen.insert(std::make_pair(N1, N2)).second)
          Work.emplace_back(N1, N2);
        if (MetaNameAt(P1, N1) != MetaNameAt(P2, N2))
          continue;
        R.add(N1, N2, Cond(N1, N2));
      }
    }
  }

  // Fallback for rotation-style transformations (e.g. the combined software
  // pipelining rule, Fig. 5): if name-matched pairing leaves some loop
  // uncut, the aligned points pair *different* meta-variables. Seed the
  // full cross product of reachable pairs; misaligned extras are harmless —
  // the checker's feasibility pruning keeps them inert.
  if (!loopsCut(P1, R.origStopMask(P1.numLocations())) ||
      !loopsCut(P2, R.transStopMask(P2.numLocations()))) {
    for (const auto &[N1, N2] : Seen) {
      if (N1 == P1.entry() && N2 == P2.entry())
        continue;
      R.add(N1, N2, Cond(N1, N2));
    }
  }

  // Concrete-program fallback (classic translation validation, Sec. 2.3):
  // with no meta-statements there is nothing to pair, so cut loops by
  // correlating loop heads positionally.
  if (!loopsCut(P1, R.origStopMask(P1.numLocations())) ||
      !loopsCut(P2, R.transStopMask(P2.numLocations()))) {
    std::vector<Location> Heads1 = loopHeads(P1);
    std::vector<Location> Heads2 = loopHeads(P2);
    if (Heads1.size() == Heads2.size())
      for (size_t I = 0; I < Heads1.size(); ++I)
        R.add(Heads1[I], Heads2[I], Cond(Heads1[I], Heads2[I]));
  }
  SeedSpan.attr("entries", static_cast<uint64_t>(R.size()));
  return R;
}
