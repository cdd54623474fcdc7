//===- pec_basic_test.cpp - PEC pipeline tests (concrete + simple rules) ------===//

#include "pec/Pec.h"

#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace pec;

namespace {

StmtPtr parseC(std::string_view Src) {
  Expected<StmtPtr> S = parseProgram(Src, ParseMode::Concrete);
  EXPECT_TRUE(bool(S)) << (S ? "" : S.error().str());
  return S.take();
}

Rule parseR(std::string_view Src) {
  Expected<Rule> R = parseRule(Src);
  EXPECT_TRUE(bool(R)) << (R ? "" : R.error().str());
  return R.take();
}

//===----------------------------------------------------------------------===//
// Translation validation on concrete programs (paper Sec. 2.3: PEC
// subsumes translation validation).
//===----------------------------------------------------------------------===//

TEST(PecTV, IdenticalPrograms) {
  StmtPtr P = parseC("x := 1; y := x + 2;");
  PecResult R = proveEquivalence(P, P);
  EXPECT_TRUE(R.Proved) << R.FailureReason;
}

TEST(PecTV, ReorderedIndependentAssignments) {
  PecResult R = proveEquivalence(parseC("x := 1; y := 2;"),
                                 parseC("y := 2; x := 1;"));
  EXPECT_TRUE(R.Proved) << R.FailureReason;
}

TEST(PecTV, ConstantFolding) {
  PecResult R = proveEquivalence(parseC("x := 2 + 3;"), parseC("x := 5;"));
  EXPECT_TRUE(R.Proved) << R.FailureReason;
}

TEST(PecTV, RedundantStoreElimination) {
  PecResult R = proveEquivalence(parseC("x := y; x := y;"),
                                 parseC("x := y;"));
  EXPECT_TRUE(R.Proved) << R.FailureReason;
}

TEST(PecTV, DifferentResultsRejected) {
  PecResult R = proveEquivalence(parseC("x := 1;"), parseC("x := 2;"));
  EXPECT_FALSE(R.Proved);
}

TEST(PecTV, DroppedAssignmentRejected) {
  PecResult R = proveEquivalence(parseC("x := 1; y := 2;"),
                                 parseC("x := 1;"));
  EXPECT_FALSE(R.Proved);
}

TEST(PecTV, BranchSimplification) {
  // if (1 < 2) x := 7 else x := 8  ==  x := 7.
  PecResult R = proveEquivalence(
      parseC("if (1 < 2) x := 7; else x := 8;"), parseC("x := 7;"));
  EXPECT_TRUE(R.Proved) << R.FailureReason;
}

TEST(PecTV, ArithmeticRewrite) {
  PecResult R = proveEquivalence(parseC("x := y + y;"),
                                 parseC("x := 2 * y;"));
  EXPECT_TRUE(R.Proved) << R.FailureReason;
}

TEST(PecTV, ArrayStoreReorderConstantIndices) {
  PecResult R = proveEquivalence(parseC("a[0] := 1; a[1] := 2;"),
                                 parseC("a[1] := 2; a[0] := 1;"));
  EXPECT_TRUE(R.Proved) << R.FailureReason;
}

TEST(PecTV, ArrayStoreSameIndexOrderMatters) {
  PecResult R = proveEquivalence(parseC("a[i] := 1; a[i] := 2;"),
                                 parseC("a[i] := 2; a[i] := 1;"));
  EXPECT_FALSE(R.Proved);
}

//===----------------------------------------------------------------------===//
// Simple parameterized rules
//===----------------------------------------------------------------------===//

TEST(PecRule, SkipElimination) {
  Rule R = parseR("rule skip_elim { skip; S0; } => { S0; }");
  PecResult Result = proveRule(R);
  EXPECT_TRUE(Result.Proved) << Result.FailureReason;
}

TEST(PecRule, CopyPropagationThroughHole) {
  // Paper Sec. 2.1 hole semantics: S1 uses X only through the hole.
  Rule R = parseR("rule copy_prop { X := Y; S1[X]; } => { X := Y; S1[Y]; }");
  PecResult Result = proveRule(R);
  EXPECT_TRUE(Result.Proved) << Result.FailureReason;
}

TEST(PecRule, CopyPropagationWrongDirectionRejected) {
  // Propagating the *target* into the hole is wrong.
  Rule R = parseR("rule bad_copy { X := Y; S1[Y]; } => { X := Y; S1[X + 1]; }");
  PecResult Result = proveRule(R);
  EXPECT_FALSE(Result.Proved);
}

TEST(PecRule, ConstantPropagation) {
  Rule R = parseR("rule const_prop { L1: X := E; S1[X]; } => { X := E; S1[E]; } "
                  "where ConstExpr(E) @ L1");
  PecResult Result = proveRule(R);
  EXPECT_TRUE(Result.Proved) << Result.FailureReason;
}

TEST(PecRule, ConstantPropagationWithoutFactRejected) {
  // Without ConstExpr the expression may read X and the rewrite is wrong.
  Rule R = parseR("rule bad_const_prop { X := E; S1[X]; } => { X := E; S1[E]; }");
  PecResult Result = proveRule(R);
  EXPECT_FALSE(Result.Proved);
}

TEST(PecRule, DeadBranchElimination) {
  Rule R = parseR(
      "rule dead_branch { if (E) { S1; } else { S1; } } => { S1; } ");
  PecResult Result = proveRule(R);
  EXPECT_TRUE(Result.Proved) << Result.FailureReason;
}

TEST(PecRule, SwapIndependentStatements) {
  // Ground Commute fact: the two statements may be reordered.
  Rule R = parseR("rule swap { L1: S1; S2; } => { S2; S1; } "
                  "where Commute(S1, S2) @ L1");
  PecResult Result = proveRule(R);
  EXPECT_TRUE(Result.Proved) << Result.FailureReason;
}

TEST(PecRule, SwapWithoutCommuteRejected) {
  Rule R = parseR("rule bad_swap { S1; S2; } => { S2; S1; }");
  PecResult Result = proveRule(R);
  EXPECT_FALSE(Result.Proved);
}

TEST(PecRule, OverflowingCoefficientIsRejectedNotFatal) {
  // Y's coefficient 65536^4 = 2^64 leaves int64: the solver's arithmetic
  // degrades to "not valid", so the rule is rejected, and the process
  // (a `pec serve` daemon, say) lives on.
  Rule R = parseR("rule big { X := Y * 65536 * 65536 * 65536 * 65536; } "
                  "=> { X := Y * 65536 * 65536 * 65536 * 65536 + 1; };");
  PecResult Result = proveRule(R);
  EXPECT_FALSE(Result.Proved);
  EXPECT_GE(Result.Atp.BudgetExhausted, 1u);
}

TEST(PecRule, StatsArePopulated) {
  Rule R = parseR("rule swap { L1: S1; S2; } => { S2; S1; } "
                  "where Commute(S1, S2) @ L1");
  PecResult Result = proveRule(R);
  ASSERT_TRUE(Result.Proved);
  EXPECT_GT(Result.AtpQueries, 0u);
  EXPECT_GE(Result.RelationSize, 2u);
  EXPECT_GT(Result.PathPairs, 0u);
}

} // namespace
