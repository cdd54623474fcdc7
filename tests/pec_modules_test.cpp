//===- pec_modules_test.cpp - Facts / Correlate / Permute unit tests ------------===//

#include "pec/Correlate.h"
#include "pec/Facts.h"
#include "pec/Permute.h"
#include "pec/Relation.h"

#include "lang/Parser.h"
#include "lang/Printer.h"

#include <gtest/gtest.h>

using namespace pec;

namespace {

Rule ruleOf(std::string_view Src) {
  Expected<Rule> R = parseRule(Src);
  EXPECT_TRUE(bool(R)) << (R ? "" : R.error().str());
  return R.take();
}

struct BuiltRule {
  Rule R;
  Cfg P1, P2;
  ProofContext Ctx;

  explicit BuiltRule(std::string_view Src)
      : R(ruleOf(Src)), P1(Cfg::build(R.Before)), P2(Cfg::build(R.After)) {
    Expected<ProofContext> C = buildProofContext(R, P1, P2);
    EXPECT_TRUE(bool(C)) << (C ? "" : C.error().str());
    if (C)
      Ctx = std::move(*C);
  }
};

//===----------------------------------------------------------------------===//
// Facts
//===----------------------------------------------------------------------===//

TEST(Facts, FrameFromDoesNotModify) {
  BuiltRule B("rule r { L1: S0; } => { S0; } "
              "where DoesNotModify(S0, I) @ L1");
  const MetaStmtInfo &Info = B.Ctx.Env.StmtInfo.at(Symbol::get("S0"));
  EXPECT_TRUE(Info.PreservedVars.count(Symbol::get("I")));
  EXPECT_FALSE(Info.MaskedVars.count(Symbol::get("I")));
}

TEST(Facts, MaskAndFrameFromDoesNotAccess) {
  BuiltRule B("rule r { L1: S0; } => { S0; } "
              "where DoesNotAccess(S0, I) @ L1");
  const MetaStmtInfo &Info = B.Ctx.Env.StmtInfo.at(Symbol::get("S0"));
  EXPECT_TRUE(Info.PreservedVars.count(Symbol::get("I")));
  EXPECT_TRUE(Info.MaskedVars.count(Symbol::get("I")));
}

TEST(Facts, HolePatternsImplyMaskAndFrame) {
  BuiltRule B("rule r { S1[I]; } => { S1[I]; }");
  const MetaStmtInfo &Info = B.Ctx.Env.StmtInfo.at(Symbol::get("S1"));
  EXPECT_TRUE(Info.PreservedVars.count(Symbol::get("I")));
  EXPECT_TRUE(Info.MaskedVars.count(Symbol::get("I")));
}

TEST(Facts, ExprMaskFromDoesNotUse) {
  BuiltRule B("rule r { L1: S0; } => { S0; } where DoesNotUse(E, I) @ L1");
  EXPECT_TRUE(B.Ctx.Env.ExprInfo.at(Symbol::get("E"))
                  .MaskedVars.count(Symbol::get("I")));
}

TEST(Facts, ConstExpr) {
  BuiltRule B("rule r { L1: S0; } => { S0; } where ConstExpr(E) @ L1");
  EXPECT_TRUE(B.Ctx.Env.ExprInfo.at(Symbol::get("E")).IsConst);
}

TEST(Facts, LocationFactsAttach) {
  BuiltRule B("rule r { L1: S0; } => { L2: S0; } "
              "where StrictlyPositive(E) @ L1 && StrictlyPositive(E) @ L2");
  EXPECT_EQ(B.Ctx.OrigFacts.size(), 1u);
  EXPECT_EQ(B.Ctx.TransFacts.size(), 1u);
}

TEST(Facts, UnknownLabelIsAnError) {
  Rule R = ruleOf("rule r { S0; } => { S0; } "
                  "where StrictlyPositive(E) @ L9");
  Cfg P1 = Cfg::build(R.Before), P2 = Cfg::build(R.After);
  EXPECT_FALSE(bool(buildProofContext(R, P1, P2)));
}

TEST(Facts, UnknownFactIsAnError) {
  Rule R = ruleOf("rule r { L1: S0; } => { S0; } where Fancy(E) @ L1");
  Cfg P1 = Cfg::build(R.Before), P2 = Cfg::build(R.After);
  EXPECT_FALSE(bool(buildProofContext(R, P1, P2)));
}

TEST(Facts, QuantifiedCommuteBecomesEvidence) {
  BuiltRule B("rule r { L1: S1[I]; } => { S1[I]; } "
              "where forall K, L . Commute(S1[K], S1[L]) @ L1");
  ASSERT_EQ(B.Ctx.Commutes.size(), 1u);
  EXPECT_EQ(B.Ctx.Commutes[0].Bound.size(), 2u);
}

TEST(Facts, StmtPreservesExpr) {
  BuiltRule B("rule r { L1: S0; } => { S0; } "
              "where DoesNotModify(S0, I) @ L1 && DoesNotModify(S0, E) @ L1");
  Symbol S0 = Symbol::get("S0");
  EXPECT_TRUE(B.Ctx.stmtPreservesExpr(
      S0, *parseExpr("I", ParseMode::Parameterized)));
  EXPECT_TRUE(B.Ctx.stmtPreservesExpr(
      S0, *parseExpr("I + 1", ParseMode::Parameterized)));
  EXPECT_TRUE(B.Ctx.stmtPreservesExpr(
      S0, *parseExpr("E", ParseMode::Parameterized)));
  // J is not covered by any fact.
  EXPECT_FALSE(B.Ctx.stmtPreservesExpr(
      S0, *parseExpr("J", ParseMode::Parameterized)));
  // A compound containing E is not covered by the whole-expression fact.
  EXPECT_FALSE(B.Ctx.stmtPreservesExpr(
      S0, *parseExpr("E + J", ParseMode::Parameterized)));
}

//===----------------------------------------------------------------------===//
// ConditionFlow (the Post analysis)
//===----------------------------------------------------------------------===//

TEST(ConditionFlow, BranchConditionsAvailable) {
  BuiltRule B("rule r { if (E0) { S1; } else { S2; } } => "
              "{ if (E0) { S1; } else { S2; } }");
  ConditionFlow Flow(B.P1, B.Ctx);
  // The location before S1 must know E0; before S2 must know !E0.
  Location PreS1 = InvalidLocation, PreS2 = InvalidLocation;
  for (const CfgEdge &E : B.P1.edges()) {
    if (E.Atom->kind() == StmtKind::MetaStmt) {
      if (E.Atom->metaName() == Symbol::get("S1"))
        PreS1 = E.From;
      else
        PreS2 = E.From;
    }
  }
  ASSERT_NE(PreS1, InvalidLocation);
  ASSERT_NE(PreS2, InvalidLocation);
  EXPECT_EQ(Flow.conditionsAt(PreS1).size(), 1u);
  EXPECT_EQ(printExpr(Flow.conditionsAt(PreS1)[0]), "E0");
  ASSERT_EQ(Flow.conditionsAt(PreS2).size(), 1u);
  EXPECT_EQ(printExpr(Flow.conditionsAt(PreS2)[0]), "!E0");
}

TEST(ConditionFlow, AssignmentEqualitiesSurviveFramedStatements) {
  BuiltRule B("rule r { I := 0; L1: S0; } => { I := 0; S0; } "
              "where DoesNotModify(S0, I) @ L1");
  ConditionFlow Flow(B.P1, B.Ctx);
  bool Found = false;
  for (const ExprPtr &C : Flow.conditionsAt(B.P1.exit()))
    Found |= printExpr(C) == "I == 0";
  EXPECT_TRUE(Found); // Survives S0 thanks to the frame fact.
}

TEST(ConditionFlow, EqualityKilledBySelfReference) {
  BuiltRule B("rule r { I := I + 1; S0; } => { I := I + 1; S0; }");
  ConditionFlow Flow(B.P1, B.Ctx);
  // `I := I + 1` reads its own target: no equality is generated anywhere.
  for (Location L = 0; L < B.P1.numLocations(); ++L)
    for (const ExprPtr &C : Flow.conditionsAt(L))
      EXPECT_EQ(printExpr(C).find("I =="), std::string::npos);
}

TEST(ConditionFlow, LoopInvariantConditionsReachTheHead) {
  // scale := 4 survives the loop; i := 0 does not.
  Expected<StmtPtr> P =
      parseProgram("scale := 4; i := 0; while (i < n) { out[i] := scale; "
                   "i := i + 1; }");
  ASSERT_TRUE(bool(P));
  Cfg G = Cfg::build(*P);
  ProofContext Ctx;
  ConditionFlow Flow(G, Ctx);
  // Find the loop head: the location with two outgoing assume edges.
  Location Head = InvalidLocation;
  for (Location L = 0; L < G.numLocations(); ++L)
    if (G.successors(L).size() == 2)
      Head = L;
  ASSERT_NE(Head, InvalidLocation);
  bool HasScale = false, HasI = false;
  for (const ExprPtr &C : Flow.conditionsAt(Head)) {
    std::string S = printExpr(C);
    HasScale |= S == "scale == 4";
    HasI |= S == "i == 0";
  }
  EXPECT_TRUE(HasScale);
  EXPECT_FALSE(HasI);
}

//===----------------------------------------------------------------------===//
// Correlate
//===----------------------------------------------------------------------===//

TEST(Correlate, SeedsEntryAndExit) {
  BuiltRule B("rule r { S0; } => { S0; }");
  TermArena Arena;
  Lowering Low(Arena, B.Ctx.Env);
  TermId S1 = Arena.mkSymConst(Symbol::get("s1"), Sort::State);
  TermId S2 = Arena.mkSymConst(Symbol::get("s2"), Sort::State);
  ConditionFlow F1(B.P1, B.Ctx), F2(B.P2, B.Ctx);
  CorrelationRelation R = correlate(B.P1, B.P2, B.Ctx, Low, S1, S2, F1, F2);
  EXPECT_GE(R.size(), 3u); // entry, exit, (preS0, preS0).
  EXPECT_GE(R.find(B.P1.entry(), B.P2.entry()), 0);
  EXPECT_GE(R.find(B.P1.exit(), B.P2.exit()), 0);
}

TEST(Correlate, PairsSameMetaVariablesOnly) {
  BuiltRule B("rule r { L1: S1; S2; } => { S2; S1; } "
              "where Commute(S1, S2) @ L1");
  TermArena Arena;
  Lowering Low(Arena, B.Ctx.Env);
  TermId S1 = Arena.mkSymConst(Symbol::get("s1"), Sort::State);
  TermId S2 = Arena.mkSymConst(Symbol::get("s2"), Sort::State);
  ConditionFlow F1(B.P1, B.Ctx), F2(B.P2, B.Ctx);
  CorrelationRelation R = correlate(B.P1, B.P2, B.Ctx, Low, S1, S2, F1, F2);
  // Only entry + exit: S1/S2 never co-locate with the same name.
  EXPECT_EQ(R.size(), 2u);
}

TEST(Correlate, Figure7ShapeForPipelining) {
  // The retiming rule's relation must have the 7 entries of paper Fig. 7.
  BuiltRule B(R"(rule t1 {
      I := 0;
      L1: S0;
      L2: while (I < E) { L3: S1; L4: S2; L5: I++; }
    } => {
      I := 0; S0; S1;
      while (I < E - 1) { S2; I++; S1; }
      S2; I++;
    } where DoesNotModify(S0, I) @ L1 && DoesNotModify(S1, I) @ L3
         && DoesNotModify(S2, I) @ L4 && StrictlyPositive(E) @ L2
         && DoesNotModify(S1, E) @ L3 && DoesNotModify(S2, E) @ L4
         && DoesNotUse(E, I) @ L5)");
  TermArena Arena;
  Lowering Low(Arena, B.Ctx.Env);
  TermId S1 = Arena.mkSymConst(Symbol::get("s1"), Sort::State);
  TermId S2 = Arena.mkSymConst(Symbol::get("s2"), Sort::State);
  ConditionFlow F1(B.P1, B.Ctx), F2(B.P2, B.Ctx);
  CorrelationRelation R = correlate(B.P1, B.P2, B.Ctx, Low, S1, S2, F1, F2);
  EXPECT_EQ(R.size(), 7u) << R.str(Arena);
}

//===----------------------------------------------------------------------===//
// Relation
//===----------------------------------------------------------------------===//

TEST(Relation, AddIsIdempotentPerPair) {
  CorrelationRelation R;
  FormulaPtr T = Formula::mkTrue();
  size_t A = R.add(1, 2, T);
  size_t B = R.add(1, 2, Formula::mkFalse());
  EXPECT_EQ(A, B);
  EXPECT_EQ(R.size(), 1u);
  EXPECT_EQ(R.entry(A).Pred->kind(), FormulaKind::True); // First wins.
}

TEST(Relation, StopMasks) {
  CorrelationRelation R;
  R.add(1, 2, Formula::mkTrue());
  R.add(3, 2, Formula::mkTrue());
  std::vector<char> Orig = R.origStopMask(5);
  std::vector<char> Trans = R.transStopMask(5);
  EXPECT_TRUE(Orig[1] && Orig[3] && !Orig[2]);
  EXPECT_TRUE(Trans[2] && !Trans[1]);
}

//===----------------------------------------------------------------------===//
// Permute internals
//===----------------------------------------------------------------------===//

PermuteOutcome runPermuteOn(std::string_view Src) {
  Rule R = ruleOf(Src);
  TermArena Arena;
  Atp Prover(Arena);
  return runPermute(R, Prover);
}

TEST(Permute, NotAttemptedOnNonLoops) {
  PermuteOutcome Out = runPermuteOn("rule r { S0; } => { S0; }");
  EXPECT_FALSE(Out.Attempted);
}

TEST(Permute, IdentityNest) {
  PermuteOutcome Out = runPermuteOn(
      "rule r { for (I := E1; I <= E2; I++) { S[I]; } } => "
      "{ for (I := E1; I <= E2; I++) { S[I]; } }");
  EXPECT_TRUE(Out.Attempted);
  EXPECT_TRUE(Out.Proved) << Out.Note;
  EXPECT_TRUE(Out.RequiredDeadVars.count(Symbol::get("I")));
}

TEST(Permute, ShiftedBoundsFailDomainCheck) {
  // Domain shifted without re-indexing the body: condition 1 fails... the
  // identity F maps [E1+1, E2+1] outside [E1, E2].
  PermuteOutcome Out = runPermuteOn(
      "rule r { for (I := E1; I <= E2; I++) { S[I]; } } => "
      "{ for (I := E1 + 1; I <= E2 + 1; I++) { S[I]; } }");
  EXPECT_TRUE(Out.Attempted);
  EXPECT_FALSE(Out.Proved);
}

TEST(Permute, NonAffineBodyRejected) {
  PermuteOutcome Out = runPermuteOn(
      "rule r { for (I := E1; I <= E2; I++) { S[I]; } } => "
      "{ for (I := E1; I <= E2; I++) { S[I * I]; } }");
  EXPECT_TRUE(Out.Attempted);
  EXPECT_FALSE(Out.Proved);
}

TEST(Permute, ReversalNeedsCommute) {
  const char *NoCommute =
      "rule r { for (I := E1; I <= E2; I++) { S[I]; } } => "
      "{ for (I := E2; I >= E1; I--) { S[I]; } }";
  EXPECT_FALSE(runPermuteOn(NoCommute).Proved);
  const char *WithCommute =
      "rule r { for (I := E1; I <= E2; I++) { L1: S[I]; } } => "
      "{ for (I := E2; I >= E1; I--) { S[I]; } } "
      "where forall K, L . Commute(S[K], S[L]) @ L1";
  EXPECT_TRUE(runPermuteOn(WithCommute).Proved);
}

TEST(Permute, SkewNeedsNoCommute) {
  // Skewing preserves execution order: condition 5 is vacuous.
  PermuteOutcome Out = runPermuteOn(
      "rule r { for (I := E1; I <= E2; I++) { for (J := E3; J <= E4; J++) "
      "{ S[I, J]; } } } => "
      "{ for (I := E1; I <= E2; I++) { for (J := E3 + 3 * I; "
      "J <= E4 + 3 * I; J++) { S[I, J - 3 * I]; } } }");
  EXPECT_TRUE(Out.Attempted);
  EXPECT_TRUE(Out.Proved) << Out.Note;
}

TEST(Permute, OverflowingIndexCoefficientGivesUp) {
  // The transformed hole's coefficient of I, 65536^4 = 2^64, leaves int64.
  // The five conditions are proved about the extracted mapping, not about
  // the rule text, so Permute must give up rather than prove them for a
  // mapping the rule does not have (or abort the process).
  PermuteOutcome Out = runPermuteOn(
      "rule r { for (I := E1; I <= E2; I++) { S[I]; } } => "
      "{ for (I := E1; I <= E2; I++) "
      "{ S[65536 * (65536 * (65536 * (65536 * I)))]; } }");
  EXPECT_TRUE(Out.Attempted);
  EXPECT_FALSE(Out.Proved);
  EXPECT_EQ(Out.Note, "index arithmetic overflows 64 bits");
}

TEST(Permute, FusionBoundsMustAgree) {
  PermuteOutcome Out = runPermuteOn(
      "rule r { for (I := E1; I <= E2; I++) { S1[I]; } "
      "for (J := E1; J <= E2 + 1; J++) { L1: S2[J]; } } => "
      "{ for (I := E1; I <= E2; I++) { S1[I]; S2[I]; } } "
      "where forall K, L . Commute(S1[K], S2[L]) @ L1");
  EXPECT_TRUE(Out.Attempted);
  EXPECT_FALSE(Out.Proved);
}

} // namespace
