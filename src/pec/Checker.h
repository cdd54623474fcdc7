//===- Checker.h - Bisimulation checking and strengthening ------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Checker module (paper Fig. 9): turns a correlation relation into a
/// bisimulation relation or fails.
///
///   * ComputePaths — enumerates path pairs between relation entries
///     (`->R`), pruning pairs whose joint strongest postcondition is
///     unsatisfiable (Infeasible); a feasible pair ending outside the
///     relation is a failure.
///   * GenerateConstraints — one constraint per path pair: the source
///     entry's predicate must imply the parallel weakest precondition of
///     the target entry's predicate.
///   * SolveConstraints — worklist fixpoint that strengthens source
///     predicates with failed PWPs; strengthening the entry pair fails.
///
/// Fact instances from the rule's side conditions are injected during the
/// symbolic execution of each path (InsertAssumes, realized lazily).
///
//===----------------------------------------------------------------------===//

#ifndef PEC_PEC_CHECKER_H
#define PEC_PEC_CHECKER_H

#include "cfg/Cfg.h"
#include "logic/Lowering.h"
#include "pec/Explain.h"
#include "pec/Facts.h"
#include "pec/Relation.h"
#include "solver/Atp.h"

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace pec {

struct CheckerOptions {
  uint32_t MaxStrengthenings = 200;
  size_t MaxPathsPerEntry = 512;
  size_t MaxPathLen = 256;
  /// How many intermediate relation points a *response* path may cross.
  /// Slack lets a lagging program catch up across several of its own
  /// segments (stuttering bisimulation; hoisting's direct proof uses it).
  size_t ResponseSlack = 1;
  /// Location pairs the relation must not contain (set by the driver when
  /// a previous attempt showed a seeded pair to be wrong — removing a pair
  /// only weakens the relation, which is always sound).
  std::set<std::pair<Location, Location>> BannedPairs;
  /// Capture a structured FailureDiagnosis (counterexample model, minimized
  /// obligation, strengthening trail) on failure. Costs extra ATP queries
  /// (tagged Purpose::Minimize), so off by default for library callers; the
  /// pipeline driver turns it on.
  bool Diagnose = false;
  /// Query budget of the greedy obligation minimizer.
  uint32_t MaxMinimizerQueries = 48;
  /// How many strengthening-trail lines a diagnosis records.
  size_t MaxTrailEntries = 16;
};

struct CheckerResult {
  bool Proved = false;
  FailureKind Kind = FailureKind::None;
  std::string FailureReason;
  /// Structured failure explanation; non-null only when
  /// CheckerOptions::Diagnose was set and the proof failed.
  std::shared_ptr<FailureDiagnosis> Diagnosis;
  uint32_t Strengthenings = 0;
  size_t PathPairs = 0;
  size_t PrunedPathPairs = 0;
  /// Re-checks avoided because the strengthened entry was not among the
  /// response targets blamed by the constraint's last unsat core.
  size_t CoreSkippedRechecks = 0;
  /// On an entry-predicate failure: the non-entry/exit response targets of
  /// the failing constraint — candidates for banning on a retry.
  std::vector<std::pair<Location, Location>> FailedTargets;
};

/// Runs the Checker on relation \p R (predicates are strengthened in
/// place). \p S1 / \p S2 are the state constants the predicates range over.
CheckerResult checkRelation(CorrelationRelation &R, const Cfg &P1,
                            const Cfg &P2, const ProofContext &Ctx,
                            Lowering &Low, Atp &Prover, TermId S1, TermId S2,
                            const CheckerOptions &Options = {});

} // namespace pec

#endif // PEC_PEC_CHECKER_H
