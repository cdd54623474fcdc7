//===- Optimizations.h - The Figure 11 optimization suite -------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 18 optimizations of the paper's evaluation (Fig. 11), written in the
/// rule language and organized by the paper's categories:
///
///   * Category 1 — expressible and provable in Rhodium: copy propagation,
///     constant propagation, common subexpression elimination, partial
///     redundancy elimination.
///   * Category 2 — provable in Rhodium but more general/easier here: loop
///     invariant code hoisting, conditional speculation, speculation.
///   * Category 3 — not expressible in Rhodium: software pipelining (two
///     rules, Figs. 2-3, plus the combined Fig. 5 form), loop unswitching,
///     unrolling, peeling, splitting, alignment, interchange, reversal,
///     skewing, fusion, distribution.
///
/// Each entry records whether the paper's Fig. 11 marks it as using the
/// Permute module. See EXPERIMENTS.md for formulation notes where the paper
/// only names an optimization without giving its rule.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_OPTS_OPTIMIZATIONS_H
#define PEC_OPTS_OPTIMIZATIONS_H

#include "lang/Rule.h"

#include <ostream>
#include <string>
#include <vector>

namespace pec {

/// One optimization of the Fig. 11 suite.
struct OptEntry {
  std::string Name;      ///< Paper's row name (lower_snake_case).
  int Category = 0;      ///< Paper's category 1/2/3.
  bool UsesPermute = false; ///< Paper's "Uses permute" column.
  std::string RuleText;  ///< The rule in the rule language.
  /// Additional rules for multi-rule optimizations (software pipelining).
  std::vector<std::string> ExtraRuleTexts;
  /// The paper's reported numbers (Fig. 11): wall time in seconds and the
  /// number of theorem-prover queries.
  int PaperSeconds = 0;
  int PaperAtpCalls = 0;
};

/// Prints the rule name. GoogleTest finds this by argument-dependent lookup
/// when an OptEntry is a test parameter; without it the test names would
/// embed the entry's raw bytes, heap pointers included, and change from
/// build to build.
inline void PrintTo(const OptEntry &Entry, std::ostream *OS) {
  *OS << Entry.Name;
}

/// The full Fig. 11 suite, in the paper's row order.
const std::vector<OptEntry> &figure11Suite();

/// Parses the (first) rule of \p Entry; aborts on parse errors (the suite
/// is compiled in, so a parse error is a programming bug).
Rule parseRuleOrDie(const std::string &RuleText);

/// Looks up a suite entry by name; aborts if absent.
const OptEntry &findOpt(const std::string &Name);

} // namespace pec

#endif // PEC_OPTS_OPTIMIZATIONS_H
