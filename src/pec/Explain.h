//===- Explain.h - Proof-failure diagnostics --------------------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured explanations for failed equivalence proofs. When the pipeline
/// rejects a rule it records a FailureDiagnosis: which correlation entry
/// failed, the proof obligation that did not hold, a concrete two-state
/// counterexample model extracted from the ATP, the side-condition facts
/// that were assumed, and a greedily minimized form of the failing
/// obligation (drop-one-conjunct over the hypotheses, re-querying the ATP).
///
/// The diagnosis is rendered three ways: human-readable text for the
/// `pec explain` subcommand, a Graphviz DOT drawing of both CFGs with the
/// correlation entries as cross-edges, and a `diagnosis` object in the
/// pec-report-v2 JSON schema (see Report.h / docs/DIAGNOSTICS.md).
///
//===----------------------------------------------------------------------===//

#ifndef PEC_PEC_EXPLAIN_H
#define PEC_PEC_EXPLAIN_H

#include "cfg/Cfg.h"
#include "pec/Relation.h"
#include "solver/Atp.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pec {

/// Why a proof failed, as a closed taxonomy (the `failure_reason` slug of
/// pec-report-v2; free text lives in `failure_detail`).
enum class FailureKind {
  None,                   ///< Proved, or not yet diagnosed.
  NoCorrelation,          ///< Path enumeration blew up: a loop is not cut
                          ///< by any correlation entry.
  TerminationMismatch,    ///< One program terminated, the other can step.
  ObligationInvalid,      ///< The entry pair's obligation is invalid: the
                          ///< programs disagree on some input.
  StrengtheningDiverged,  ///< The strengthening fixpoint did not converge.
  PermuteConditionFailed, ///< The Permute module's condition was invalid.
  SideCondition,          ///< The rule's side condition did not elaborate.
};

/// The stable report slug for \p K ("obligation-invalid", ...). Empty for
/// FailureKind::None.
const char *failureKindName(FailureKind K);

/// Parses a report slug back into a FailureKind (None for unknown/empty).
FailureKind failureKindFromName(const std::string &Name);

/// Everything recorded about one proof failure. All formulas are rendered
/// to strings (and clipped) at capture time so the diagnosis outlives the
/// term arena of the proof.
struct FailureDiagnosis {
  FailureKind Kind = FailureKind::None;
  /// The failing correlation entry (l1, l2, phi); InvalidLocation when the
  /// failure happened before any entry was singled out.
  Location L1 = InvalidLocation;
  Location L2 = InvalidLocation;
  std::string EntryPredicate; ///< Rendered phi of the failing entry.
  /// Which program moved in the failing simulation constraint:
  /// 1 = original, 2 = transformed, 0 = not applicable.
  int MoverSide = 0;
  std::string Obligation;          ///< Rendered failing check formula.
  std::string MinimizedObligation; ///< After greedy hypothesis dropping.
  size_t ObligationConjuncts = 0;  ///< Hypothesis conjuncts before.
  size_t MinimizedConjuncts = 0;   ///< Hypothesis conjuncts kept.
  uint32_t MinimizerQueries = 0;   ///< ATP re-queries the minimizer spent.
  /// One line per strengthening iteration (capped): which entry was
  /// strengthened and with what obligation.
  std::vector<std::string> StrengtheningTrail;
  /// Side-condition fact instances that were assumed in the failing
  /// constraint (rendered, deduplicated).
  std::vector<std::string> AssumedFacts;
  /// Concrete two-state counterexample from the ATP (empty when the
  /// failure did not come from a falsifiable query, e.g. path blow-up).
  AtpModel Model;
  /// Graphviz drawing of both CFGs with correlation cross-edges; filled by
  /// the pipeline driver once the final relation is known.
  std::string Dot;
};

class Atp;

/// Outcome of the greedy obligation minimizer.
struct MinimizeResult {
  FormulaPtr Minimized;        ///< Implication over the kept hypotheses.
  size_t OriginalConjuncts = 0;
  size_t KeptConjuncts = 0;
  uint32_t Queries = 0;
};

/// Greedy drop-one-conjunct minimization of the invalid implication
/// \p Check: repeatedly drop a hypothesis conjunct, keep the drop iff the
/// ATP still reports the implication invalid. Queries are tagged with
/// Purpose::Minimize and capped at \p MaxQueries. Hypotheses
/// that survive are load-bearing for the (in)validity answer; when none
/// survive, the conclusion is falsifiable outright.
MinimizeResult minimizeObligation(Atp &Prover, const FormulaPtr &Check,
                                  uint32_t MaxQueries);

/// Splits formula \p F into its conjunct leaves (recursively through And).
void flattenConjuncts(const FormulaPtr &F, std::vector<FormulaPtr> &Out);

/// Clips \p S to \p MaxLen characters, appending an ellipsis marker.
std::string clipText(std::string S, size_t MaxLen = 2000);

/// Renders both CFGs as one Graphviz digraph: a cluster per program,
/// statement-labeled edges, and the correlation entries of \p R as dashed
/// cross-edges labeled with their predicates. When \p D is non-null its
/// failing entry is highlighted. Output passes `dot -Tsvg`.
std::string renderProofDot(const Cfg &P1, const Cfg &P2,
                           const CorrelationRelation &R,
                           const TermArena &Arena,
                           const std::string &RuleName,
                           const FailureDiagnosis *D = nullptr);

/// Human-readable rendering of a diagnosis (the `pec explain` output).
std::string renderDiagnosis(const FailureDiagnosis &D,
                            const std::string &RuleName);

} // namespace pec

#endif // PEC_PEC_EXPLAIN_H
