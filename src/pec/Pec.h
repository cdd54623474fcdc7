//===- Pec.h - Parameterized Equivalence Checking driver --------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level PEC pipeline (paper Fig. 8):
///
/// \code
///   function PEC(p1, p2, f)
///     (p1', p2') := Permute(p1, p2, f)
///     R          := Correlate(p1', p2')
///     return Check(R, p1', p2', f)
/// \endcode
///
/// `proveRule` proves a parameterized rewrite rule correct once and for
/// all; `proveEquivalence` proves two *concrete* programs equivalent, which
/// is classic translation validation (the paper's observation that PEC
/// subsumes it, Sec. 2.3).
///
//===----------------------------------------------------------------------===//

#ifndef PEC_PEC_PEC_H
#define PEC_PEC_PEC_H

#include "lang/Meaning.h"
#include "lang/Rule.h"
#include "pec/Checker.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace pec {

class AtpCache;
class ThreadPool;

struct PecOptions {
  CheckerOptions Checker;
  bool UsePermute = true;
  AtpOptions Atp;
  /// User-declared fact meanings (paper Fig. 4), additional to the
  /// built-in catalog.
  std::vector<FactDecl> UserFacts;
  /// Build a FailureDiagnosis (counterexample model, minimized
  /// obligation, CFG/correlation DOT) when a proof fails: once, after the
  /// ban-and-retry loop, for the attempt reported. Its model query and
  /// minimizer queries are tagged Purpose::Minimize; a proved rule does
  /// no diagnosis work. Overrides Checker.Diagnose.
  bool Diagnose = true;
  /// Shared ATP memoization cache (AtpCache.h). Safe to share across
  /// concurrently proved rules; must outlive the proofs.
  AtpCache *Cache = nullptr;
  /// Unused: nothing reads it. Each rule is proved on the calling thread;
  /// parallelism is per rule and the caller's business (proveRule is
  /// thread-safe, since all per-proof state is local; docs/PARALLELISM.md).
  /// Kept only because perfbench/prove_loop.cpp still sets it.
  ThreadPool *Pool = nullptr;
};

struct PecResult {
  bool Proved = false;
  bool UsedPermute = false;
  /// Failure taxonomy slug source (see failureKindName); None when proved.
  FailureKind Kind = FailureKind::None;
  /// Free-text elaboration of the failure (the pec-report-v2
  /// `failure_detail` field).
  std::string FailureReason;
  /// Structured failure explanation (non-null when PecOptions::Diagnose
  /// and the proof failed).
  std::shared_ptr<FailureDiagnosis> Diagnosis;
  /// Number of theorem-prover queries (the paper's "#ATP calls").
  uint64_t AtpQueries = 0;
  /// Wall-clock seconds for the whole pipeline.
  double Seconds = 0;
  /// Full prover statistics, including the per-purpose query/time
  /// breakdown (path pruning vs. proof obligations vs. permute conditions
  /// vs. strengthening re-checks).
  AtpStats Atp;
  /// Wall-clock per pipeline phase (Fig. 8's three stages).
  double PermuteSeconds = 0;
  double CorrelateSeconds = 0;
  double CheckSeconds = 0;
  uint32_t Strengthenings = 0;
  size_t RelationSize = 0;
  size_t PathPairs = 0;
  size_t PrunedPathPairs = 0;
  /// Loop index variables the execution engine must verify dead after the
  /// rewritten fragment (produced by the Permute module).
  std::set<Symbol> RequiredDeadVars;
};

/// Proves rewrite rule \p R semantics-preserving, once and for all.
PecResult proveRule(const Rule &R, const PecOptions &Options = {});

/// Translation validation: proves two concrete programs equivalent.
PecResult proveEquivalence(const StmtPtr &Original, const StmtPtr &Transformed,
                           const PecOptions &Options = {});

} // namespace pec

#endif // PEC_PEC_PEC_H
