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
  /// Keep what a diagnosis needs beyond CheckerResult::Failure: the
  /// strengthening trail, and the witness model of a termination
  /// mismatch (asked of the reachability query the check runs anyway).
  /// Costs no extra ATP query; the diagnosis itself is built by the
  /// pipeline driver (proveRule), which turns this on.
  bool Diagnose = false;
  /// How many strengthening steps the trail keeps.
  size_t MaxTrailEntries = 16;
};

/// One strengthening step (paper Fig. 9 line 33), for a diagnosis's trail.
struct StrengtheningStep {
  uint32_t Iteration = 0;
  Location L1 = InvalidLocation;
  Location L2 = InvalidLocation;
  int MoverSide = 0;
  FormulaPtr Obligation; ///< Conjoined into the entry's predicate.
};

/// What a failed check reports, unrendered and without any ATP query of
/// its own; proveRule turns the reported attempt's into a
/// FailureDiagnosis.
struct CheckerFailure {
  /// The failing correlation entry (l1, l2, phi).
  Location L1 = InvalidLocation;
  Location L2 = InvalidLocation;
  FormulaPtr EntryPred;
  /// Which program moved: 1 = original, 2 = transformed, 0 = not known.
  int MoverSide = 0;
  /// The invalid check `phi => obligation`; null unless the failure was
  /// an invalid check (ObligationInvalid, StrengtheningDiverged).
  FormulaPtr Check;
  /// The fact instances the failing constraint assumed: the move's, then
  /// each response's.
  std::vector<FormulaPtr> Facts;
  /// Termination mismatch: a model of the reachable entry predicate.
  AtpModel Witness;
};

struct CheckerResult {
  bool Proved = false;
  FailureKind Kind = FailureKind::None;
  std::string FailureReason;
  /// Filled when the check failed.
  CheckerFailure Failure;
  /// The first CheckerOptions::MaxTrailEntries strengthening steps, when
  /// CheckerOptions::Diagnose is set.
  std::vector<StrengtheningStep> Trail;
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
