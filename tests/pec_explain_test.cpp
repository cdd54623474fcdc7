//===- pec_explain_test.cpp - Proof-failure diagnostics tests ------------------===//
//
// Exercises the Explain subsystem end to end: the deliberately unsound
// rules in rules/unsound.rules must each be rejected with a structured
// FailureDiagnosis carrying a non-empty ATP counterexample model and a
// minimized obligation no larger than the original, the greedy minimizer
// must respect its query cap, and the `pec explain` CLI (including the
// --dot Graphviz export) must surface all of it.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "pec/Explain.h"
#include "pec/Pec.h"
#include "solver/Atp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

using namespace pec;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Parses rules/unsound.rules and proves every rule with diagnosis on,
/// memoized so the suite pays for the (failing) proofs once.
const std::map<std::string, PecResult> &unsoundResults() {
  static const std::map<std::string, PecResult> Results = [] {
    std::map<std::string, PecResult> Out;
    Expected<std::vector<Rule>> Rules = parseRules(
        readFile(std::string(PEC_RULES_DIR) + "/unsound.rules"));
    EXPECT_TRUE(bool(Rules)) << Rules.error().str();
    if (Rules)
      for (const Rule &R : *Rules)
        Out.emplace(R.Name, proveRule(R));
    return Out;
  }();
  return Results;
}

int countOccurrences(const std::string &Haystack, const std::string &Needle) {
  int N = 0;
  for (size_t At = Haystack.find(Needle); At != std::string::npos;
       At = Haystack.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Failure taxonomy
//===----------------------------------------------------------------------===//

TEST(FailureKind, SlugsRoundTrip) {
  const FailureKind Kinds[] = {
      FailureKind::NoCorrelation,         FailureKind::TerminationMismatch,
      FailureKind::ObligationInvalid,     FailureKind::StrengtheningDiverged,
      FailureKind::PermuteConditionFailed, FailureKind::SideCondition};
  for (FailureKind K : Kinds) {
    const std::string Slug = failureKindName(K);
    EXPECT_FALSE(Slug.empty());
    EXPECT_EQ(failureKindFromName(Slug), K) << Slug;
  }
  EXPECT_STREQ(failureKindName(FailureKind::None), "");
  EXPECT_EQ(failureKindFromName(""), FailureKind::None);
  EXPECT_EQ(failureKindFromName("not-a-slug"), FailureKind::None);
}

//===----------------------------------------------------------------------===//
// Every unsound rule yields a full diagnosis
//===----------------------------------------------------------------------===//

TEST(UnsoundRules, AllRejectedWithDiagnosis) {
  const auto &Results = unsoundResults();
  ASSERT_GE(Results.size(), 2u);
  for (const auto &[Name, Result] : Results) {
    EXPECT_FALSE(Result.Proved) << Name << " must not prove";
    EXPECT_NE(Result.Kind, FailureKind::None) << Name;
    ASSERT_TRUE(Result.Diagnosis != nullptr) << Name;
    const FailureDiagnosis &D = *Result.Diagnosis;
    EXPECT_EQ(D.Kind, Result.Kind) << Name;

    // The ISSUE contract: a concrete ATP counterexample model...
    EXPECT_FALSE(D.Model.empty()) << Name << " diagnosis lacks an ATP model";
    for (const AtpModelEntry &E : D.Model.Values) {
      EXPECT_FALSE(E.Term.empty()) << Name;
    }
    // ...and a minimized obligation no larger than the original.
    EXPECT_LE(D.MinimizedConjuncts, D.ObligationConjuncts) << Name;

    // The rendered form names the rule and the failure slug.
    const std::string Text = renderDiagnosis(D, Name);
    EXPECT_NE(Text.find(Name), std::string::npos);
    EXPECT_NE(Text.find(failureKindName(D.Kind)), std::string::npos);

    // The pipeline filled in the Graphviz drawing.
    EXPECT_NE(D.Dot.find("digraph"), std::string::npos) << Name;
  }
}

TEST(UnsoundRules, BadCopyPropagationObligationInvalid) {
  const auto &Results = unsoundResults();
  auto It = Results.find("bad_copy_propagation");
  ASSERT_NE(It, Results.end());
  ASSERT_TRUE(It->second.Diagnosis != nullptr);
  const FailureDiagnosis &D = *It->second.Diagnosis;

  // Without the DoesNotModify(S1, Y) side condition the exit obligation is
  // plain invalid; the ATP hands back a complete two-state model in which
  // S1's uninterpreted step function changes Y.
  EXPECT_EQ(D.Kind, FailureKind::ObligationInvalid);
  EXPECT_TRUE(D.Model.Complete);
  EXPECT_FALSE(D.Model.Values.empty());
  EXPECT_FALSE(D.EntryPredicate.empty());
  EXPECT_FALSE(D.Obligation.empty());
  EXPECT_GE(D.ObligationConjuncts, 1u);
  EXPECT_GE(D.MinimizerQueries, 1u);
  EXPECT_LE(D.MinimizedConjuncts, D.ObligationConjuncts);
  EXPECT_FALSE(D.MinimizedObligation.empty());
  // One diagnosis per reported failure: the rule's minimize-purpose
  // queries are this diagnosis's model query and its minimizer queries,
  // none from the attempt the ban-and-retry loop superseded.
  EXPECT_EQ(It->second.Atp
                .ByPurpose[static_cast<size_t>(telemetry::Purpose::Minimize)]
                .Queries,
            D.MinimizerQueries + 1u);

  const std::string Text = renderDiagnosis(D, "bad_copy_propagation");
  EXPECT_NE(Text.find("counterexample"), std::string::npos);
  EXPECT_NE(Text.find("obligation"), std::string::npos);
}

TEST(UnsoundRules, BadLoopBoundTerminationMismatch) {
  const auto &Results = unsoundResults();
  auto It = Results.find("bad_loop_bound");
  ASSERT_NE(It, Results.end());
  ASSERT_TRUE(It->second.Diagnosis != nullptr);
  const FailureDiagnosis &D = *It->second.Diagnosis;

  // The transformed loop (I < E + 1) still steps after the original exits,
  // so the checker reports a termination mismatch on the transformed side,
  // witnessed by a satisfying model of the entry predicate.
  EXPECT_EQ(D.Kind, FailureKind::TerminationMismatch);
  EXPECT_EQ(D.MoverSide, 2);
  EXPECT_FALSE(D.Model.empty());
  EXPECT_NE(D.L1, InvalidLocation);
  EXPECT_NE(D.L2, InvalidLocation);
}

TEST(UnsoundRules, ProvedRulesCarryNoDiagnosis) {
  Expected<Rule> R = parseRule("rule id { X := Y; } => { X := Y; };");
  ASSERT_TRUE(bool(R)) << R.error().str();
  PecResult Result = proveRule(*R);
  EXPECT_TRUE(Result.Proved);
  EXPECT_EQ(Result.Kind, FailureKind::None);
  EXPECT_TRUE(Result.Diagnosis == nullptr);
}

//===----------------------------------------------------------------------===//
// Greedy obligation minimizer
//===----------------------------------------------------------------------===//

TEST(MinimizeObligation, DropsNonLoadBearingHypotheses) {
  TermArena Arena;
  Atp Prover(Arena);
  TermId X = Arena.mkSymConst(Symbol::get("x"), Sort::Int);
  TermId Y = Arena.mkSymConst(Symbol::get("y"), Sort::Int);
  TermId Z = Arena.mkSymConst(Symbol::get("z"), Sort::Int);

  // (x = y /\ y = z) => x < z is invalid, and stays invalid with every
  // hypothesis dropped (dropping hypotheses only weakens an implication),
  // so the greedy pass strips them all.
  FormulaPtr Check = Formula::mkImplies(
      Formula::mkAnd(Formula::mkEq(Arena, X, Y),
                     Formula::mkEq(Arena, Y, Z)),
      Formula::mkLt(Arena, X, Z));
  ASSERT_FALSE(Prover.query(AtpQuery::validity(Check)).Verdict);

  MinimizeResult M = minimizeObligation(Prover, Check, /*MaxQueries=*/16);
  EXPECT_EQ(M.OriginalConjuncts, 2u);
  EXPECT_EQ(M.KeptConjuncts, 0u);
  EXPECT_GE(M.Queries, 1u);
  ASSERT_TRUE(M.Minimized != nullptr);
  // The minimized implication is still invalid: minimization preserves the
  // failure it explains.
  EXPECT_FALSE(Prover.query(AtpQuery::validity(M.Minimized)).Verdict);
}

TEST(MinimizeObligation, RespectsQueryCap) {
  TermArena Arena;
  Atp Prover(Arena);
  TermId X = Arena.mkSymConst(Symbol::get("x"), Sort::Int);
  TermId Y = Arena.mkSymConst(Symbol::get("y"), Sort::Int);
  TermId Z = Arena.mkSymConst(Symbol::get("z"), Sort::Int);
  FormulaPtr Check = Formula::mkImplies(
      Formula::mkAnd(Formula::mkEq(Arena, X, Y),
                     Formula::mkEq(Arena, Y, Z)),
      Formula::mkLt(Arena, X, Z));

  MinimizeResult M = minimizeObligation(Prover, Check, /*MaxQueries=*/0);
  EXPECT_EQ(M.Queries, 0u);
  EXPECT_EQ(M.KeptConjuncts, M.OriginalConjuncts);
}

TEST(MinimizeObligation, FlattenConjunctsRecursesThroughAnd) {
  TermArena Arena;
  TermId X = Arena.mkSymConst(Symbol::get("x"), Sort::Int);
  TermId Y = Arena.mkSymConst(Symbol::get("y"), Sort::Int);
  TermId Z = Arena.mkSymConst(Symbol::get("z"), Sort::Int);
  FormulaPtr F = Formula::mkAnd(
      Formula::mkAnd(Formula::mkEq(Arena, X, Y), Formula::mkEq(Arena, Y, Z)),
      Formula::mkLt(Arena, X, Z));
  std::vector<FormulaPtr> Leaves;
  flattenConjuncts(F, Leaves);
  EXPECT_EQ(Leaves.size(), 3u);
}

TEST(ClipText, ClipsLongStringsOnly) {
  EXPECT_EQ(clipText("short", 10), "short");
  std::string Clipped = clipText(std::string(100, 'a'), 10);
  EXPECT_LT(Clipped.size(), 100u);
  EXPECT_NE(Clipped.find("..."), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Graphviz export
//===----------------------------------------------------------------------===//

TEST(ProofDot, WellFormedWithHighlightedFailingEntry) {
  const auto &Results = unsoundResults();
  auto It = Results.find("bad_copy_propagation");
  ASSERT_NE(It, Results.end());
  ASSERT_TRUE(It->second.Diagnosis != nullptr);
  const std::string &Dot = It->second.Diagnosis->Dot;

  EXPECT_NE(Dot.find("digraph pec_proof"), std::string::npos);
  EXPECT_NE(Dot.find("cluster_p1"), std::string::npos);
  EXPECT_NE(Dot.find("cluster_p2"), std::string::npos);
  // Balanced braces: digraph + two clusters, nothing left dangling.
  EXPECT_EQ(countOccurrences(Dot, "{"), countOccurrences(Dot, "}"));
  EXPECT_GE(countOccurrences(Dot, "{"), 3);
  // Correlation entries appear as dashed cross-edges, the failing one red.
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(Dot.find("color=red"), std::string::npos);
  // Node ids stay inside each cluster's namespace.
  EXPECT_NE(Dot.find("p1_0"), std::string::npos);
  EXPECT_NE(Dot.find("p2_0"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// pec explain CLI
//===----------------------------------------------------------------------===//

struct CommandResult {
  int Exit = -1;
  std::string Out;
};

CommandResult runCommand(const std::string &Command) {
  CommandResult R;
  FILE *Pipe = popen((Command + " 2>&1").c_str(), "r");
  EXPECT_TRUE(Pipe != nullptr);
  if (!Pipe)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Out.append(Buf, N);
  int Status = pclose(Pipe);
  R.Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

TEST(ExplainCli, DiagnosesEveryUnsoundRule) {
  CommandResult R = runCommand(std::string(PEC_BIN) + " explain " +
                               PEC_RULES_DIR + "/unsound.rules");
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("bad_copy_propagation"), std::string::npos);
  EXPECT_NE(R.Out.find("bad_loop_bound"), std::string::npos);
  EXPECT_NE(R.Out.find("[obligation-invalid]"), std::string::npos);
  EXPECT_NE(R.Out.find("[termination-mismatch]"), std::string::npos);
  EXPECT_EQ(R.Out.find(": PROVED ("), std::string::npos) << R.Out;
}

TEST(ExplainCli, SingleRuleSelection) {
  CommandResult R = runCommand(std::string(PEC_BIN) + " explain " +
                               PEC_RULES_DIR +
                               "/unsound.rules bad_loop_bound");
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("bad_loop_bound"), std::string::npos);
  EXPECT_EQ(R.Out.find("bad_copy_propagation"), std::string::npos);
}

TEST(ExplainCli, UnknownRuleFails) {
  CommandResult R = runCommand(std::string(PEC_BIN) + " explain " +
                               PEC_RULES_DIR +
                               "/unsound.rules no_such_rule");
  EXPECT_NE(R.Exit, 0);
}

TEST(ExplainCli, WritesDotFile) {
  const std::string DotPath =
      ::testing::TempDir() + "/pec_explain_test.dot";
  std::remove(DotPath.c_str());
  CommandResult R =
      runCommand(std::string(PEC_BIN) + " explain " + PEC_RULES_DIR +
                 "/unsound.rules --dot " + DotPath);
  EXPECT_EQ(R.Exit, 0) << R.Out;

  const std::string Dot = readFile(DotPath);
  EXPECT_NE(Dot.find("digraph pec_proof"), std::string::npos);
  EXPECT_EQ(countOccurrences(Dot, "{"), countOccurrences(Dot, "}"));
  std::remove(DotPath.c_str());
}

} // namespace
