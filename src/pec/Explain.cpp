//===- Explain.cpp - Proof-failure diagnostics ----------------------------------===//

#include "pec/Explain.h"

#include "lang/Printer.h"
#include "support/Escape.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <sstream>

using namespace pec;

const char *pec::failureKindName(FailureKind K) {
  switch (K) {
  case FailureKind::None:
    return "";
  case FailureKind::NoCorrelation:
    return "no-correlation";
  case FailureKind::TerminationMismatch:
    return "termination-mismatch";
  case FailureKind::ObligationInvalid:
    return "obligation-invalid";
  case FailureKind::StrengtheningDiverged:
    return "strengthening-diverged";
  case FailureKind::PermuteConditionFailed:
    return "permute-condition-failed";
  case FailureKind::SideCondition:
    return "side-condition";
  }
  return "";
}

FailureKind pec::failureKindFromName(const std::string &Name) {
  static const FailureKind Kinds[] = {
      FailureKind::NoCorrelation,         FailureKind::TerminationMismatch,
      FailureKind::ObligationInvalid,     FailureKind::StrengtheningDiverged,
      FailureKind::PermuteConditionFailed, FailureKind::SideCondition,
  };
  for (FailureKind K : Kinds)
    if (Name == failureKindName(K))
      return K;
  return FailureKind::None;
}

std::string pec::clipText(std::string S, size_t MaxLen) {
  if (S.size() <= MaxLen)
    return S;
  S.resize(MaxLen);
  S += " ...<clipped>";
  return S;
}

void pec::flattenConjuncts(const FormulaPtr &F, std::vector<FormulaPtr> &Out) {
  if (F->kind() == FormulaKind::And) {
    for (const FormulaPtr &C : F->children())
      flattenConjuncts(C, Out);
    return;
  }
  if (F->kind() == FormulaKind::True)
    return;
  Out.push_back(F);
}

namespace {

/// Splits an obligation into hypotheses and conclusion. `mkImplies`
/// desugars to disjunction, so the shape at hand is
/// `Or(Not(H1), ..., Not(Hk), D1, ..., Dm)`: negated disjuncts are
/// hypothesis conjunctions, positive disjuncts form the conclusion.
void splitObligation(const FormulaPtr &F, std::vector<FormulaPtr> &Hyps,
                     FormulaPtr &Concl) {
  if (F->kind() == FormulaKind::Or) {
    std::vector<FormulaPtr> Disjuncts;
    for (const FormulaPtr &C : F->children()) {
      if (C->kind() == FormulaKind::Not)
        flattenConjuncts(C->children()[0], Hyps);
      else
        Disjuncts.push_back(C);
    }
    Concl = Formula::mkOr(std::move(Disjuncts));
    return;
  }
  if (F->kind() == FormulaKind::Not) {
    flattenConjuncts(F->children()[0], Hyps);
    Concl = Formula::mkFalse();
    return;
  }
  Concl = F;
}

FormulaPtr rebuild(const std::vector<FormulaPtr> &Hyps,
                   const FormulaPtr &Concl) {
  std::vector<FormulaPtr> Copy = Hyps;
  return Formula::mkImplies(Formula::mkAnd(std::move(Copy)), Concl);
}

} // namespace

MinimizeResult pec::minimizeObligation(Atp &Prover, const FormulaPtr &Check,
                                       uint32_t MaxQueries) {
  telemetry::PurposeScope Tag(telemetry::Purpose::Minimize);
  trace::Span Span("explain.minimize");

  std::vector<FormulaPtr> Hyps;
  FormulaPtr Concl;
  splitObligation(Check, Hyps, Concl);

  MinimizeResult Result;
  Result.OriginalConjuncts = Hyps.size();

  // Greedy deletion: drop a hypothesis for good iff the implication stays
  // invalid without it (logically monotone; the cap guards against ATP
  // budget asymmetries making re-queries expensive). Each probe is an
  // assumption query on the prover's persistent session — the implication
  // `And(W) => Concl` is invalid iff `!Concl /\ And(W)` is satisfiable —
  // so the conclusion's encoding and all learned clauses are shared
  // across the whole deletion sweep.
  FormulaPtr NotConcl = Formula::mkNot(Concl);
  size_t I = 0;
  while (I < Hyps.size() && Result.Queries < MaxQueries) {
    std::vector<FormulaPtr> Without;
    Without.reserve(Hyps.size() - 1);
    for (size_t K = 0; K < Hyps.size(); ++K)
      if (K != I)
        Without.push_back(Hyps[K]);
    ++Result.Queries;
    bool StillInvalid =
        Prover.query(AtpQuery::assumptions(NotConcl, Without)).Verdict;
    if (trace::enabled()) {
      std::ostringstream OS;
      OS << "drop hypothesis " << I << "/" << Hyps.size() << ": "
         << (StillInvalid ? "kept dropped" : "load-bearing");
      trace::instant("explain.minimize.step", "payload", OS.str());
    }
    if (StillInvalid)
      Hyps = std::move(Without); // I now names the next candidate.
    else
      ++I; // Load-bearing: keep it, move on.
  }

  Result.KeptConjuncts = Hyps.size();
  Result.Minimized = rebuild(Hyps, Concl);
  Span.attr("queries", static_cast<uint64_t>(Result.Queries));
  Span.attr("kept", static_cast<uint64_t>(Result.KeptConjuncts));
  Span.attr("original", static_cast<uint64_t>(Result.OriginalConjuncts));
  return Result;
}

namespace {

/// One-line rendering of a CFG edge's atomic statement for a DOT label.
std::string edgeLabel(const StmtPtr &Atom) {
  std::string S = printStmt(Atom);
  std::string Flat;
  Flat.reserve(S.size());
  bool LastSpace = false;
  for (char C : S) {
    if (C == '\n' || C == '\t' || C == ' ') {
      if (!LastSpace && !Flat.empty())
        Flat.push_back(' ');
      LastSpace = true;
    } else {
      Flat.push_back(C);
      LastSpace = false;
    }
  }
  while (!Flat.empty() && Flat.back() == ' ')
    Flat.pop_back();
  return clipText(std::move(Flat), 60);
}

void renderCluster(std::ostream &OS, const Cfg &G, const char *Prefix,
                   const char *Title) {
  OS << "  subgraph cluster_" << Prefix << " {\n";
  OS << "    label=\"" << escapeDot(Title) << "\";\n";
  OS << "    color=gray50;\n";
  OS << "    fontname=\"Helvetica\";\n";
  for (Location L = 0; L < G.numLocations(); ++L) {
    OS << "    " << Prefix << "_" << L << " [label=\"" << L << "\", shape="
       << (L == G.exit() ? "doublecircle" : "circle")
       << (L == G.entry() ? ", style=bold" : "") << "];\n";
  }
  for (const CfgEdge &E : G.edges())
    OS << "    " << Prefix << "_" << E.From << " -> " << Prefix << "_"
       << E.To << " [label=\"" << escapeDot(edgeLabel(E.Atom))
       << "\", fontsize=10];\n";
  OS << "  }\n";
}

} // namespace

std::string pec::renderProofDot(const Cfg &P1, const Cfg &P2,
                                const CorrelationRelation &R,
                                const TermArena &Arena,
                                const std::string &RuleName,
                                const FailureDiagnosis *D) {
  std::ostringstream OS;
  OS << "digraph pec_proof {\n";
  OS << "  rankdir=TB;\n";
  OS << "  fontname=\"Helvetica\";\n";
  std::string Title = "rule " + RuleName;
  if (D && D->Kind != FailureKind::None)
    Title += std::string(" - NOT PROVED (") + failureKindName(D->Kind) + ")";
  OS << "  label=\"" << escapeDot(Title) << "\";\n";
  OS << "  labelloc=t;\n";
  renderCluster(OS, P1, "p1", "original");
  renderCluster(OS, P2, "p2", "transformed");
  for (const RelEntry &E : R.entries()) {
    bool Failing = D && E.L1 == D->L1 && E.L2 == D->L2;
    std::string Phi = clipText(E.Pred->str(Arena), 120);
    OS << "  p1_" << E.L1 << " -> p2_" << E.L2
       << " [style=dashed, constraint=false, dir=none, fontsize=9, "
       << (Failing ? "color=red, fontcolor=red, penwidth=2, "
                   : "color=steelblue, fontcolor=steelblue, ")
       << "label=\"" << escapeDot(Phi) << "\"];\n";
  }
  OS << "}\n";
  return OS.str();
}

std::string pec::renderDiagnosis(const FailureDiagnosis &D,
                                 const std::string &RuleName) {
  std::ostringstream OS;
  OS << "rule " << RuleName << ": NOT PROVED";
  if (D.Kind != FailureKind::None)
    OS << " [" << failureKindName(D.Kind) << "]";
  OS << "\n";

  if (D.L1 != InvalidLocation && D.L2 != InvalidLocation) {
    OS << "  failing correlation entry: (" << D.L1 << ", " << D.L2 << ")\n";
    if (!D.EntryPredicate.empty())
      OS << "  entry predicate: " << D.EntryPredicate << "\n";
  }
  if (D.MoverSide == 1)
    OS << "  mover: original program\n";
  else if (D.MoverSide == 2)
    OS << "  mover: transformed program\n";

  if (!D.AssumedFacts.empty()) {
    OS << "  assumed side-condition facts:\n";
    for (const std::string &F : D.AssumedFacts)
      OS << "    - " << F << "\n";
  }

  if (!D.Model.empty()) {
    OS << "  counterexample model ("
       << (D.Model.Complete ? "complete" : "partial") << "):\n";
    for (const AtpModelEntry &E : D.Model.Values)
      OS << "    " << E.Term << " = " << E.Value << "\n";
    const size_t MaxLits = 12;
    if (!D.Model.Literals.empty()) {
      OS << "    committed literals:\n";
      for (size_t I = 0; I < D.Model.Literals.size() && I < MaxLits; ++I)
        OS << "      " << D.Model.Literals[I] << "\n";
      if (D.Model.Literals.size() > MaxLits)
        OS << "      ... (" << (D.Model.Literals.size() - MaxLits)
           << " more)\n";
    }
  } else if (D.Kind == FailureKind::ObligationInvalid ||
             D.Kind == FailureKind::StrengtheningDiverged) {
    OS << "  counterexample model: none (ATP budget exhausted; the failure "
          "is conservative)\n";
  }

  if (!D.Obligation.empty())
    OS << "  failing obligation: " << D.Obligation << "\n";
  if (!D.MinimizedObligation.empty()) {
    OS << "  minimized obligation (" << D.MinimizedConjuncts << "/"
       << D.ObligationConjuncts << " hypotheses kept, " << D.MinimizerQueries
       << " ATP queries): " << D.MinimizedObligation << "\n";
    if (D.MinimizedConjuncts == 0 && D.ObligationConjuncts > 0)
      OS << "    (no hypothesis is load-bearing: the required predicate is "
            "falsifiable outright)\n";
  }

  if (!D.StrengtheningTrail.empty()) {
    OS << "  strengthening trail:\n";
    for (const std::string &Line : D.StrengtheningTrail)
      OS << "    - " << Line << "\n";
  }
  return OS.str();
}
