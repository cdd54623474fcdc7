//===- Differ.h - Prover-vs-interpreter differential driver -----*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracle half of the scenario factory. For every generated program,
/// every rule in the corpus is matched at every site (engine/Match),
/// applied (engine/Apply), and the original/optimized pair is executed on
/// generated stores (interp/Interp). The verdict lattice:
///
///   * both runs Ok, final states equal        -> agreement
///   * both runs Ok, final states differ       -> DIVERGENCE; if the
///     checker proved the rule this is a soundness bug (the headline
///     signal `pec fuzz` exists to catch)
///   * both runs trap with the same status     -> agreement ("both trap
///     identically")
///   * one run Ok / other traps (or statuses
///     differ)                                 -> inconclusive, counted
///     but NOT a divergence: the prover's logical semantics totalizes
///     division and proves partial equivalence only, so asymmetric traps
///     are outside the proved contract
///
/// Rules the checker rejects are exercised too (always under
/// `AssumeProved`, which treats every rule as applicable): a divergence
/// there *confirms* the rejection and becomes a negative scenario for
/// the regression corpus, with the Explain counterexample model biasing
/// the generated stores toward the failing region.
///
/// Determinism: program i is generated from child seed mix(Seed, i), all
/// per-program work uses only that stream, and per-index results are
/// merged in index order — `--jobs N` changes wall-clock, never output.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_FUZZ_DIFFER_H
#define PEC_FUZZ_DIFFER_H

#include "fuzz/ProgGen.h"
#include "lang/Parser.h"

#include <string>
#include <vector>

namespace pec {
namespace fuzz {

struct DiffOptions {
  uint64_t Seed = 1;
  uint64_t Programs = 100;
  /// Stores run per successful rule application.
  uint32_t StatesPerApplication = 4;
  /// Sites tried per (rule, program) pair.
  uint32_t MaxSitesPerRule = 8;
  /// Interpreter step budget per run.
  uint64_t Fuel = 1u << 18;
  GenOptions Gen;
  /// Per-query prover wall-clock budget (AtpOptions::QueryBudgetMs).
  uint64_t QueryBudgetMs = 2000;
  unsigned Jobs = 1;
  /// Treat every rule as proved, including checker-rejected ones. This is
  /// the planted-unsound pipeline test (and the negative-scenario mode):
  /// the oracle must then catch the divergence dynamically.
  bool AssumeProved = false;
  /// Shrink divergence witnesses before recording them.
  bool MinimizeFindings = true;
  /// Cap on recorded findings (counters keep counting past it).
  uint32_t MaxFindings = 8;
};

struct DiffFinding {
  std::string RuleName;
  std::string RuleText;
  std::string Original;  ///< Minimized witness program (text).
  std::string Optimized; ///< Its rewrite under the rule (text).
  std::string StateText; ///< Initial store, renderStateLine format.
  std::string Detail;    ///< Human summary (final states on both sides).
  /// The checker proved this rule — the finding is a genuine soundness
  /// bug, not a confirmed negative.
  bool RuleProved = false;
};

struct DiffSummary {
  uint64_t ProgramsGenerated = 0;
  uint64_t MatchSites = 0;
  uint64_t Applications = 0;
  uint64_t StatesRun = 0;
  uint64_t Agreements = 0;
  uint64_t BothTrapped = 0;
  uint64_t Inconclusive = 0;
  uint64_t Divergences = 0;
  uint64_t SoundnessBugs = 0; ///< Divergences on checker-proved rules.
  uint64_t RulesProved = 0;
  uint64_t RulesRejected = 0;
  std::vector<DiffFinding> Findings;

  bool clean() const { return SoundnessBugs == 0; }
};

/// Runs the full differential campaign over \p Rules.
DiffSummary runDifferential(const RuleFile &Rules, const DiffOptions &Options);

/// Renders the summary as a stable single-object JSON document (consumed
/// by the CI summary step and the tests).
std::string summaryJson(const DiffSummary &S);

} // namespace fuzz
} // namespace pec

#endif // PEC_FUZZ_DIFFER_H
