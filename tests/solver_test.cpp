//===- solver_test.cpp - ATP substrate unit tests ------------------------------===//

#include "solver/Atp.h"
#include "solver/Euf.h"
#include "solver/Lia.h"
#include "solver/Rational.h"
#include "solver/Sat.h"
#include "solver/Theory.h"

#include <gtest/gtest.h>

using namespace pec;

namespace {

//===----------------------------------------------------------------------===//
// Rational
//===----------------------------------------------------------------------===//

TEST(Rational, Arithmetic) {
  Rational Half(1, 2), Third(1, 3);
  EXPECT_EQ((Half + Third), Rational(5, 6));
  EXPECT_EQ((Half - Third), Rational(1, 6));
  EXPECT_EQ((Half * Third), Rational(1, 6));
  EXPECT_EQ((Half / Third), Rational(3, 2));
}

TEST(Rational, Normalization) {
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-1, -2), Rational(1, 2));
  EXPECT_EQ(Rational(1, -2), Rational(-1, 2));
  EXPECT_EQ(Rational(0, 7), Rational(0));
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(7), Rational(13, 2));
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(6).floor(), 6);
  EXPECT_EQ(Rational(6).ceil(), 6);
}

//===----------------------------------------------------------------------===//
// SAT core
//===----------------------------------------------------------------------===//

TEST(Sat, TrivialSat) {
  SatSolver S;
  uint32_t A = S.newVar();
  S.addClause({Lit(A, false)});
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.valueOf(A));
}

TEST(Sat, TrivialUnsat) {
  SatSolver S;
  uint32_t A = S.newVar();
  S.addClause({Lit(A, false)});
  S.addClause({Lit(A, true)});
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(Sat, Propagation) {
  SatSolver S;
  uint32_t A = S.newVar(), B = S.newVar(), C = S.newVar();
  S.addClause({Lit(A, false)});
  S.addClause({Lit(A, true), Lit(B, false)});  // A -> B.
  S.addClause({Lit(B, true), Lit(C, false)});  // B -> C.
  EXPECT_EQ(S.solve(), SatResult::Sat);
  EXPECT_TRUE(S.valueOf(A));
  EXPECT_TRUE(S.valueOf(B));
  EXPECT_TRUE(S.valueOf(C));
}

TEST(Sat, PigeonholeTwoIntoOne) {
  // 2 pigeons, 1 hole: unsat. Var[p] = pigeon p in the hole.
  SatSolver S;
  uint32_t P0 = S.newVar(), P1 = S.newVar();
  S.addClause({Lit(P0, false)});
  S.addClause({Lit(P1, false)});
  S.addClause({Lit(P0, true), Lit(P1, true)});
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(Sat, PigeonholeFourIntoThree) {
  // 4 pigeons into 3 holes: classic small unsat instance exercising
  // conflict analysis.
  const int P = 4, H = 3;
  SatSolver S;
  uint32_t V[P][H];
  for (int I = 0; I < P; ++I)
    for (int J = 0; J < H; ++J)
      V[I][J] = S.newVar();
  for (int I = 0; I < P; ++I) {
    std::vector<Lit> C;
    for (int J = 0; J < H; ++J)
      C.push_back(Lit(V[I][J], false));
    S.addClause(C);
  }
  for (int J = 0; J < H; ++J)
    for (int I1 = 0; I1 < P; ++I1)
      for (int I2 = I1 + 1; I2 < P; ++I2)
        S.addClause({Lit(V[I1][J], true), Lit(V[I2][J], true)});
  EXPECT_EQ(S.solve(), SatResult::Unsat);
}

TEST(Sat, IncrementalClauseAddition) {
  SatSolver S;
  uint32_t A = S.newVar(), B = S.newVar();
  S.addClause({Lit(A, false), Lit(B, false)});
  EXPECT_EQ(S.solve(), SatResult::Sat);
  // Block the returned model repeatedly; after all 3 models, unsat.
  int Models = 0;
  while (S.solve() == SatResult::Sat) {
    ++Models;
    ASSERT_LE(Models, 3);
    S.addClause({Lit(A, S.valueOf(A)), Lit(B, S.valueOf(B))});
  }
  EXPECT_EQ(Models, 3);
}

//===----------------------------------------------------------------------===//
// LIA
//===----------------------------------------------------------------------===//

LinExpr lin(std::initializer_list<std::pair<uint32_t, int64_t>> Terms,
            int64_t Constant) {
  LinExpr E;
  for (auto [V, C] : Terms)
    E.add(V, Rational(C));
  E.Constant = Rational(Constant);
  return E;
}

TEST(Lia, SimpleFeasible) {
  LiaSolver S;
  uint32_t X = S.newVar();
  S.addLe(lin({{X, 1}}, -10)); // x <= 10.
  S.addLe(lin({{X, -1}}, 5));  // x >= 5.
  EXPECT_TRUE(S.isFeasible());
  EXPECT_GE(S.modelValue(X), 5);
  EXPECT_LE(S.modelValue(X), 10);
}

TEST(Lia, SimpleInfeasible) {
  LiaSolver S;
  uint32_t X = S.newVar();
  S.addLe(lin({{X, 1}}, -3)); // x <= 3.
  S.addLe(lin({{X, -1}}, 5)); // x >= 5.
  EXPECT_FALSE(S.isFeasible());
}

TEST(Lia, EqualityChains) {
  LiaSolver S;
  uint32_t X = S.newVar(), Y = S.newVar(), Z = S.newVar();
  S.addEq(lin({{X, 1}, {Y, -1}}, 0));  // x = y.
  S.addEq(lin({{Y, 1}, {Z, -1}}, -1)); // y - z - 1 = 0, i.e. z = y - 1.
  S.addEq(lin({{X, 1}}, -7));          // x = 7.
  EXPECT_TRUE(S.isFeasible());
  EXPECT_EQ(S.modelValue(X), 7);
  EXPECT_EQ(S.modelValue(Y), 7);
  EXPECT_EQ(S.modelValue(Z), 6);
}

TEST(Lia, IntegerCut) {
  // 2x = 1 has a rational solution but no integer one.
  LiaSolver S;
  uint32_t X = S.newVar();
  S.addEq(lin({{X, 2}}, -1));
  EXPECT_FALSE(S.isFeasible());
}

TEST(Lia, IntegerBranchAndBound) {
  // 3 <= 2x <= 5 forces x = 2.
  LiaSolver S;
  uint32_t X = S.newVar();
  S.addLe(lin({{X, -2}}, 3));
  S.addLe(lin({{X, 2}}, -5));
  EXPECT_TRUE(S.isFeasible());
  EXPECT_EQ(S.modelValue(X), 2);
}

TEST(Lia, IntegerInfeasibleStrip) {
  // 1/3 < x < 2/3 has rational solutions but no integer.
  LiaSolver S;
  uint32_t X = S.newVar();
  S.addLe(lin({{X, -3}}, 1)); // 3x >= 1... -3x + 1 <= 0.
  S.addLe(lin({{X, 3}}, -2)); // 3x <= 2.
  EXPECT_FALSE(S.isFeasible());
}

TEST(Lia, Disequality) {
  LiaSolver S;
  uint32_t X = S.newVar();
  S.addLe(lin({{X, 1}}, -5)); // x <= 5.
  S.addLe(lin({{X, -1}}, 5)); // x >= 5.
  S.addNe(lin({{X, 1}}, -5)); // x != 5.
  EXPECT_FALSE(S.isFeasible());
}

TEST(Lia, DisequalitySatisfiable) {
  LiaSolver S;
  uint32_t X = S.newVar();
  S.addLe(lin({{X, 1}}, -5)); // x <= 5.
  S.addLe(lin({{X, -1}}, 4)); // x >= 4.
  S.addNe(lin({{X, 1}}, -5)); // x != 5.
  EXPECT_TRUE(S.isFeasible());
  EXPECT_EQ(S.modelValue(X), 4);
}

TEST(Lia, PaperPruningPattern) {
  // The infeasibility that prunes the F->loop path in Fig. 7:
  // i = e - 1 and i + 1 < e are contradictory.
  LiaSolver S;
  uint32_t I = S.newVar(), E = S.newVar();
  S.addEq(lin({{I, 1}, {E, -1}}, 1));  // i - e + 1 = 0, i.e. i = e - 1.
  S.addLe(lin({{I, 1}, {E, -1}}, 2));  // i + 1 < e, i.e. i - e + 2 <= 0.
  EXPECT_FALSE(S.isFeasible());
}

TEST(Lia, MultiVariableSystem) {
  // x + y <= 4, x - y <= 0, x >= 1, y <= 2 -> x in {1, 2}.
  LiaSolver S;
  uint32_t X = S.newVar(), Y = S.newVar();
  S.addLe(lin({{X, 1}, {Y, 1}}, -4));
  S.addLe(lin({{X, 1}, {Y, -1}}, 0));
  S.addLe(lin({{X, -1}}, 1));
  S.addLe(lin({{Y, 1}}, -2));
  ASSERT_TRUE(S.isFeasible());
  int64_t Xv = S.modelValue(X), Yv = S.modelValue(Y);
  EXPECT_LE(Xv + Yv, 4);
  EXPECT_LE(Xv, Yv);
  EXPECT_GE(Xv, 1);
  EXPECT_LE(Yv, 2);
}

TEST(Lia, UnboundedIsFeasible) {
  LiaSolver S;
  uint32_t X = S.newVar(), Y = S.newVar();
  S.addLe(lin({{X, 1}, {Y, -1}}, 0)); // x <= y.
  EXPECT_TRUE(S.isFeasible());
}

//===----------------------------------------------------------------------===//
// Congruence closure
//===----------------------------------------------------------------------===//

TEST(Euf, TransitiveEquality) {
  TermArena A;
  TermId X = A.mkSymConst(Symbol::get("x"), Sort::Int);
  TermId Y = A.mkSymConst(Symbol::get("y"), Sort::Int);
  TermId Z = A.mkSymConst(Symbol::get("z"), Sort::Int);
  CongruenceClosure Cc(A);
  Cc.addEquality(X, Y);
  Cc.addEquality(Y, Z);
  ASSERT_TRUE(Cc.check());
  EXPECT_TRUE(Cc.areEqual(X, Z));
}

TEST(Euf, Congruence) {
  TermArena A;
  TermId X = A.mkSymConst(Symbol::get("x"), Sort::State);
  TermId Y = A.mkSymConst(Symbol::get("y"), Sort::State);
  Symbol F = Symbol::get("step$S0");
  TermId Fx = A.mkApply(F, {X}, Sort::State);
  TermId Fy = A.mkApply(F, {Y}, Sort::State);
  TermId FFx = A.mkApply(F, {Fx}, Sort::State);
  TermId FFy = A.mkApply(F, {Fy}, Sort::State);
  CongruenceClosure Cc(A);
  Cc.addEquality(X, Y);
  ASSERT_TRUE(Cc.check());
  EXPECT_TRUE(Cc.areEqual(Fx, Fy));
  EXPECT_TRUE(Cc.areEqual(FFx, FFy));
}

TEST(Euf, DisequalityConflict) {
  TermArena A;
  TermId X = A.mkSymConst(Symbol::get("x"), Sort::Int);
  TermId Y = A.mkSymConst(Symbol::get("y"), Sort::Int);
  TermId Z = A.mkSymConst(Symbol::get("z"), Sort::Int);
  CongruenceClosure Cc(A);
  Cc.addEquality(X, Y);
  Cc.addEquality(Y, Z);
  Cc.addDisequality(X, Z);
  EXPECT_FALSE(Cc.check());
}

TEST(Euf, DistinctConstantsConflict) {
  TermArena A;
  TermId X = A.mkSymConst(Symbol::get("x"), Sort::Int);
  CongruenceClosure Cc(A);
  Cc.addEquality(X, A.mkInt(1));
  Cc.addEquality(X, A.mkInt(2));
  EXPECT_FALSE(Cc.check());
}

TEST(Euf, CongruenceThroughArithmetic) {
  // x = y implies x + 1 = y + 1 by congruence over the Add symbol.
  TermArena A;
  TermId X = A.mkSymConst(Symbol::get("x"), Sort::Int);
  TermId Y = A.mkSymConst(Symbol::get("y"), Sort::Int);
  TermId X1 = A.mkAdd(X, A.mkInt(1));
  TermId Y1 = A.mkAdd(Y, A.mkInt(1));
  CongruenceClosure Cc(A);
  Cc.addEquality(X, Y);
  ASSERT_TRUE(Cc.check());
  EXPECT_TRUE(Cc.areEqual(X1, Y1));
}

//===----------------------------------------------------------------------===//
// Term arena simplifications
//===----------------------------------------------------------------------===//

TEST(Term, ConstantFolding) {
  TermArena A;
  EXPECT_EQ(A.mkAdd(A.mkInt(2), A.mkInt(3)), A.mkInt(5));
  EXPECT_EQ(A.mkSub(A.mkInt(2), A.mkInt(3)), A.mkInt(-1));
  EXPECT_EQ(A.mkMul(A.mkInt(2), A.mkInt(3)), A.mkInt(6));
  TermId X = A.mkSymConst(Symbol::get("x"), Sort::Int);
  EXPECT_EQ(A.mkAdd(X, A.mkInt(0)), X);
  EXPECT_EQ(A.mkMul(X, A.mkInt(1)), X);
  EXPECT_EQ(A.mkMul(X, A.mkInt(0)), A.mkInt(0));
  EXPECT_EQ(A.mkSub(X, X), A.mkInt(0));
}

TEST(Term, StateSelectOverStore) {
  TermArena A;
  TermId S = A.mkSymConst(Symbol::get("s"), Sort::State);
  TermId Nx = A.mkNameLit(Symbol::get("x"));
  TermId Ny = A.mkNameLit(Symbol::get("y"));
  TermId V = A.mkInt(42);
  TermId S2 = A.mkStoS(S, Nx, V);
  EXPECT_EQ(A.mkSelS(S2, Nx), V);
  EXPECT_EQ(A.mkSelS(S2, Ny), A.mkSelS(S, Ny));
}

TEST(Term, StateStoreShadowing) {
  TermArena A;
  TermId S = A.mkSymConst(Symbol::get("s"), Sort::State);
  TermId Nx = A.mkNameLit(Symbol::get("x"));
  TermId S2 = A.mkStoS(A.mkStoS(S, Nx, A.mkInt(1)), Nx, A.mkInt(2));
  EXPECT_EQ(S2, A.mkStoS(S, Nx, A.mkInt(2)));
}

TEST(Term, ArraySelectOverStoreConstants) {
  TermArena A;
  TermId Arr = A.mkSymConst(Symbol::get("a"), Sort::Array);
  TermId A2 = A.mkStoA(Arr, A.mkInt(3), A.mkInt(99));
  EXPECT_EQ(A.mkSelA(A2, A.mkInt(3)), A.mkInt(99));
  EXPECT_EQ(A.mkSelA(A2, A.mkInt(4)), A.mkSelA(Arr, A.mkInt(4)));
}

TEST(Term, HashConsing) {
  TermArena A;
  TermId X1 = A.mkSymConst(Symbol::get("x"), Sort::Int);
  TermId X2 = A.mkSymConst(Symbol::get("x"), Sort::Int);
  EXPECT_EQ(X1, X2);
  TermId E1 = A.mkAdd(X1, A.mkInt(1));
  TermId E2 = A.mkAdd(X2, A.mkInt(1));
  EXPECT_EQ(E1, E2);
}

//===----------------------------------------------------------------------===//
// ATP end-to-end
//===----------------------------------------------------------------------===//

class AtpTest : public ::testing::Test {
protected:
  TermArena A;
  Atp Prover{A};

  TermId intConst(const char *Name) {
    return A.mkSymConst(Symbol::get(Name), Sort::Int);
  }
};

TEST_F(AtpTest, PropositionalValidity) {
  TermId X = intConst("x"), Y = intConst("y");
  FormulaPtr XeqY = Formula::mkEq(A, X, Y);
  // p || !p.
  EXPECT_TRUE(Prover.query(AtpQuery::validity(Formula::mkOr(XeqY, Formula::mkNot(XeqY)))).Verdict);
  // p alone is not valid.
  EXPECT_FALSE(Prover.query(AtpQuery::validity(XeqY)).Verdict);
}

TEST_F(AtpTest, EqualityTransitivityValid) {
  TermId X = intConst("x"), Y = intConst("y"), Z = intConst("z");
  FormulaPtr F = Formula::mkImplies(
      Formula::mkAnd(Formula::mkEq(A, X, Y), Formula::mkEq(A, Y, Z)),
      Formula::mkEq(A, X, Z));
  EXPECT_TRUE(Prover.query(AtpQuery::validity(F)).Verdict);
}

TEST_F(AtpTest, CongruenceValid) {
  TermId S1 = A.mkSymConst(Symbol::get("s1"), Sort::State);
  TermId S2 = A.mkSymConst(Symbol::get("s2"), Sort::State);
  Symbol Step = Symbol::get("step$S0");
  TermId T1 = A.mkApply(Step, {S1}, Sort::State);
  TermId T2 = A.mkApply(Step, {S2}, Sort::State);
  // s1 = s2 => step(s1) = step(s2): the first key PEC observation (Sec. 2.2).
  FormulaPtr F = Formula::mkImplies(Formula::mkEq(A, S1, S2),
                                    Formula::mkEq(A, T1, T2));
  EXPECT_TRUE(Prover.query(AtpQuery::validity(F)).Verdict);
  // The same through a chain of 16 steps, the shape unrolled paths take.
  for (int I = 1; I < 16; ++I) {
    T1 = A.mkApply(Step, {T1}, Sort::State);
    T2 = A.mkApply(Step, {T2}, Sort::State);
  }
  EXPECT_TRUE(Prover.query(AtpQuery::validity(Formula::mkImplies(
                               Formula::mkEq(A, S1, S2),
                               Formula::mkEq(A, T1, T2))))
                  .Verdict);
}

TEST_F(AtpTest, ArithmeticValidity) {
  TermId X = intConst("x"), Y = intConst("y");
  // x <= y && y <= x => x = y.
  FormulaPtr F = Formula::mkImplies(
      Formula::mkAnd(Formula::mkLe(A, X, Y), Formula::mkLe(A, Y, X)),
      Formula::mkEq(A, X, Y));
  EXPECT_TRUE(Prover.query(AtpQuery::validity(F)).Verdict);
  // x = y => x + 1 = y + 1, and x * 0 = 0.
  EXPECT_TRUE(Prover.query(AtpQuery::validity(Formula::mkImplies(
                               Formula::mkEq(A, X, Y),
                               Formula::mkEq(A, A.mkAdd(X, A.mkInt(1)),
                                             A.mkAdd(Y, A.mkInt(1))))))
                  .Verdict);
  EXPECT_TRUE(Prover.query(AtpQuery::validity(Formula::mkEq(
                               A, A.mkMul(X, A.mkInt(0)), A.mkInt(0))))
                  .Verdict);
  // Contradictory hypotheses prove anything: x = 1 && x = 2 => y <= z.
  FormulaPtr XIs1And2 = Formula::mkAnd(Formula::mkEq(A, X, A.mkInt(1)),
                                       Formula::mkEq(A, X, A.mkInt(2)));
  EXPECT_TRUE(Prover.query(AtpQuery::validity(Formula::mkImplies(
                               XIs1And2, Formula::mkLe(A, Y, intConst("z")))))
                  .Verdict);
  // Not valid: x <= y and x < x.
  EXPECT_FALSE(
      Prover.query(AtpQuery::validity(Formula::mkLe(A, X, Y))).Verdict);
  EXPECT_FALSE(
      Prover.query(AtpQuery::validity(Formula::mkLt(A, X, X))).Verdict);
}

TEST_F(AtpTest, PaperPathPruning) {
  // Fig. 7 / Sec. 2.2: i = e - 1 together with i + 1 < e is unsatisfiable.
  TermId I = intConst("i"), E = intConst("e");
  FormulaPtr F = Formula::mkAnd(
      Formula::mkEq(A, I, A.mkSub(E, A.mkInt(1))),
      Formula::mkLt(A, A.mkAdd(I, A.mkInt(1)), E));
  EXPECT_FALSE(Prover.query(AtpQuery::satisfiability(F)).Verdict);

  // The same question in other shapes: x = 1 && x = 2 and x < x are
  // unsatisfiable; x <= y, x = y => x + 1 = y + 1 and x * 0 = 0 are not.
  TermId X = intConst("x"), Y = intConst("y");
  FormulaPtr XIs1 = Formula::mkEq(A, X, A.mkInt(1));
  FormulaPtr XIs2 = Formula::mkEq(A, X, A.mkInt(2));
  FormulaPtr XLeY = Formula::mkLe(A, X, Y);
  EXPECT_FALSE(
      Prover.query(AtpQuery::satisfiability(Formula::mkAnd(XIs1, XIs2)))
          .Verdict);
  EXPECT_FALSE(
      Prover.query(AtpQuery::satisfiability(Formula::mkLt(A, X, X))).Verdict);
  EXPECT_TRUE(Prover.query(AtpQuery::satisfiability(XLeY)).Verdict);
  EXPECT_TRUE(Prover.query(AtpQuery::satisfiability(Formula::mkImplies(
                               Formula::mkEq(A, X, Y),
                               Formula::mkEq(A, A.mkAdd(X, A.mkInt(1)),
                                             A.mkAdd(Y, A.mkInt(1))))))
                  .Verdict);
  EXPECT_TRUE(Prover.query(AtpQuery::satisfiability(Formula::mkEq(
                               A, A.mkMul(X, A.mkInt(0)), A.mkInt(0))))
                  .Verdict);

  // And as assumption queries, with the unsat core naming the prelude
  // (index 0) and the assumptions that clash with it.
  AtpResult R =
      Prover.query(AtpQuery::assumptions(XIs1, {XLeY, XIs2}, true));
  EXPECT_FALSE(R.Verdict);
  EXPECT_EQ(R.Core, (std::vector<size_t>{0, 2}));
  R = Prover.query(
      AtpQuery::assumptions(Formula::mkAnd(XIs1, XIs2), {XLeY}, true));
  EXPECT_FALSE(R.Verdict);
  EXPECT_EQ(R.Core, (std::vector<size_t>{0}));
  EXPECT_TRUE(Prover.query(AtpQuery::assumptions(XIs1, {XLeY})).Verdict);
}

TEST_F(AtpTest, MixedEufLia) {
  // f(x) = x && x <= 3 && f(x) >= 4 is unsat: needs CC -> LIA propagation.
  TermId X = intConst("x");
  TermId Fx = A.mkApply(Symbol::get("f"), {X}, Sort::Int);
  FormulaPtr F = Formula::mkAnd(
      {Formula::mkEq(A, Fx, X), Formula::mkLe(A, X, A.mkInt(3)),
       Formula::mkLe(A, A.mkInt(4), Fx)});
  EXPECT_FALSE(Prover.query(AtpQuery::satisfiability(F)).Verdict);
}

TEST_F(AtpTest, CongruenceOverArithmeticArgs) {
  // x = y => f(x + 1) = f(y + 1).
  TermId X = intConst("x"), Y = intConst("y");
  Symbol F = Symbol::get("f");
  TermId Fx = A.mkApply(F, {A.mkAdd(X, A.mkInt(1))}, Sort::Int);
  TermId Fy = A.mkApply(F, {A.mkAdd(Y, A.mkInt(1))}, Sort::Int);
  EXPECT_TRUE(Prover.query(AtpQuery::validity(Formula::mkImplies(Formula::mkEq(A, X, Y),
                                                Formula::mkEq(A, Fx, Fy)))).Verdict);
}

TEST_F(AtpTest, ArrayReadOverWriteLemmas) {
  // a' = store(a, i, v) => select(a', j) = (i = j ? v : select(a, j)).
  TermId Arr = A.mkSymConst(Symbol::get("a"), Sort::Array);
  TermId I = intConst("i"), J = intConst("j"), V = intConst("v");
  TermId Stored = A.mkStoA(Arr, I, V);
  TermId ReadJ = A.mkSelA(Stored, J);
  // If i = j then the read returns v.
  EXPECT_TRUE(Prover.query(AtpQuery::validity(Formula::mkImplies(
      Formula::mkEq(A, I, J), Formula::mkEq(A, ReadJ, V)))).Verdict);
  // If i != j the read falls through.
  EXPECT_TRUE(Prover.query(AtpQuery::validity(
      Formula::mkImplies(Formula::mkNot(Formula::mkEq(A, I, J)),
                         Formula::mkEq(A, ReadJ, A.mkSelA(Arr, J))))).Verdict);
  // Without knowing i vs j, neither equation is valid on its own.
  EXPECT_FALSE(Prover.query(AtpQuery::validity(Formula::mkEq(A, ReadJ, V))).Verdict);
}

TEST_F(AtpTest, StateTheoryEndToEnd) {
  // Executing `i := i + 1` on two equal states leaves them equal, and the
  // new value of i is one more than the old.
  TermId S = A.mkSymConst(Symbol::get("s1"), Sort::State);
  TermId Ni = A.mkNameLit(Symbol::get("i"));
  TermId OldI = A.mkSelS(S, Ni);
  TermId S2 = A.mkStoS(S, Ni, A.mkAdd(OldI, A.mkInt(1)));
  FormulaPtr F =
      Formula::mkEq(A, A.mkSelS(S2, Ni), A.mkAdd(OldI, A.mkInt(1)));
  EXPECT_TRUE(Prover.query(AtpQuery::validity(F)).Verdict);
  EXPECT_TRUE(Prover.query(AtpQuery::validity(Formula::mkLt(A, OldI, A.mkSelS(S2, Ni)))).Verdict);
  // Reading back a stored symbolic value, and reading another name
  // through the store.
  TermId V = intConst("v");
  TermId Nx = A.mkNameLit(Symbol::get("x"));
  EXPECT_TRUE(Prover.query(AtpQuery::validity(Formula::mkEq(
                               A, A.mkSelS(A.mkStoS(S, Ni, V), Ni), V)))
                  .Verdict);
  EXPECT_TRUE(Prover.query(AtpQuery::validity(Formula::mkEq(
                               A, A.mkSelS(A.mkStoS(S, Ni, V), Nx),
                               A.mkSelS(S, Nx))))
                  .Verdict);
}

TEST_F(AtpTest, CommuteAxiomGroundInstance) {
  // The ground shape PEC derives from a Commute side condition: given
  // stepA(stepB(s)) = stepB(stepA(s)), the two execution orders of the
  // paths produce equal final states.
  TermId S = A.mkSymConst(Symbol::get("s"), Sort::State);
  Symbol SA = Symbol::get("step$A"), SB = Symbol::get("step$B");
  TermId AB = A.mkApply(SA, {A.mkApply(SB, {S}, Sort::State)}, Sort::State);
  TermId BA = A.mkApply(SB, {A.mkApply(SA, {S}, Sort::State)}, Sort::State);
  FormulaPtr Commute = Formula::mkEq(A, AB, BA);
  // Then running an extra step C on both sides keeps them equal.
  Symbol SC = Symbol::get("step$C");
  TermId CAB = A.mkApply(SC, {AB}, Sort::State);
  TermId CBA = A.mkApply(SC, {BA}, Sort::State);
  EXPECT_TRUE(
      Prover.query(AtpQuery::validity(Formula::mkImplies(Commute, Formula::mkEq(A, CAB, CBA)))).Verdict);
  EXPECT_FALSE(Prover.query(AtpQuery::validity(Formula::mkEq(A, CAB, CBA))).Verdict);
}

TEST_F(AtpTest, NonLinearTermsAreConservative) {
  // Nonlinear products are opaque to the LIA core. TermArena::mkMul
  // orders the operands of a product, so plain commutativity
  // (x * y = y * x) holds by hash-consing, but anything deeper —
  // distributivity here — must answer "not valid" rather than guessing.
  TermId X = intConst("x"), Y = intConst("y"), Z = intConst("z");
  FormulaPtr Commute = Formula::mkEq(A, A.mkMul(X, Y), A.mkMul(Y, X));
  EXPECT_TRUE(Prover.query(AtpQuery::validity(Commute)).Verdict);
  FormulaPtr Distrib =
      Formula::mkEq(A, A.mkMul(X, A.mkAdd(Y, Z)),
                    A.mkAdd(A.mkMul(X, Y), A.mkMul(X, Z)));
  EXPECT_FALSE(Prover.query(AtpQuery::validity(Distrib)).Verdict);
}

TEST_F(AtpTest, StatsCountQueries) {
  TermId X = intConst("x");
  FormulaPtr F = Formula::mkEq(A, X, X);
  uint64_t Before = Prover.stats().Queries;
  Prover.query(AtpQuery::validity(F)).Verdict;
  Prover.query(AtpQuery::satisfiability(F)).Verdict;
  EXPECT_EQ(Prover.stats().Queries, Before + 2);
}

TEST_F(AtpTest, StatsAttributeQueriesToCurrentPurpose) {
  TermId X = intConst("x"), Y = intConst("y");
  FormulaPtr Valid = Formula::mkEq(A, X, X);
  FormulaPtr Sat = Formula::mkLe(A, X, Y);
  Prover.resetStats();

  using telemetry::Purpose;
  {
    telemetry::PurposeScope Tag(Purpose::Obligation);
    Prover.query(AtpQuery::validity(Valid)).Verdict;
    Prover.query(AtpQuery::validity(Valid)).Verdict;
  }
  {
    telemetry::PurposeScope Tag(Purpose::PathPruning);
    Prover.query(AtpQuery::satisfiability(Sat)).Verdict;
  }
  Prover.query(AtpQuery::satisfiability(Sat)).Verdict; // Untagged => Other.

  const AtpStats &S = Prover.stats();
  EXPECT_EQ(S.Queries, 4u);
  auto Slice = [&](Purpose P) {
    return S.ByPurpose[static_cast<size_t>(P)];
  };
  EXPECT_EQ(Slice(Purpose::Obligation).Queries, 2u);
  EXPECT_EQ(Slice(Purpose::PathPruning).Queries, 1u);
  EXPECT_EQ(Slice(Purpose::Other).Queries, 1u);
  EXPECT_EQ(Slice(Purpose::Strengthening).Queries, 0u);
  EXPECT_EQ(Slice(Purpose::PermuteCondition).Queries, 0u);
  // Per-purpose time sums to the total.
  uint64_t PurposeMicros = 0;
  for (size_t I = 0; I < telemetry::NumPurposes; ++I)
    PurposeMicros += S.ByPurpose[I].Microseconds;
  EXPECT_EQ(PurposeMicros, S.Microseconds);
}

TEST_F(AtpTest, ResetStatsClearsEveryField) {
  // Force decisions/propagations/conflicts: an unsatisfiable formula with
  // boolean structure the SAT core must actually search.
  TermId X = intConst("x"), Y = intConst("y");
  FormulaPtr Le = Formula::mkLe(A, X, Y);
  FormulaPtr Lt = Formula::mkLt(A, Y, X);
  FormulaPtr Eq = Formula::mkEq(A, X, Y);
  {
    telemetry::PurposeScope Tag(telemetry::Purpose::Strengthening);
    Prover.query(AtpQuery::satisfiability(Formula::mkAnd(Le, Lt))).Verdict;
    Prover.query(AtpQuery::satisfiability(
        Formula::mkAnd(Formula::mkOr(Le, Eq), Formula::mkOr(Lt, Eq)))).Verdict;
    Prover.query(AtpQuery::validity(Formula::mkImplies(Le, Eq))).Verdict;
  }
  const AtpStats &Dirty = Prover.stats();
  ASSERT_GT(Dirty.Queries, 0u);
  ASSERT_GT(Dirty.TheoryChecks, 0u);
  ASSERT_GT(Dirty.TheoryConflicts, 0u);
  ASSERT_GT(Dirty.Propagations, 0u);
  ASSERT_GT(Dirty.Microseconds, 0u);
  ASSERT_GT(
      Dirty.ByPurpose[static_cast<size_t>(telemetry::Purpose::Strengthening)]
          .Queries,
      0u);

  Prover.resetStats();

  // Every field — including the ones this PR added (SatDecisions,
  // Propagations, Microseconds, ByPurpose) — must be back to zero.
  const AtpStats &S = Prover.stats();
  EXPECT_EQ(S.Queries, 0u);
  EXPECT_EQ(S.TheoryChecks, 0u);
  EXPECT_EQ(S.TheoryConflicts, 0u);
  EXPECT_EQ(S.SatConflicts, 0u);
  EXPECT_EQ(S.SatDecisions, 0u);
  EXPECT_EQ(S.Propagations, 0u);
  EXPECT_EQ(S.Microseconds, 0u);
  for (size_t I = 0; I < telemetry::NumPurposes; ++I) {
    EXPECT_EQ(S.ByPurpose[I].Queries, 0u);
    EXPECT_EQ(S.ByPurpose[I].Microseconds, 0u);
  }
}

TEST_F(AtpTest, IffEncoding) {
  TermId X = intConst("x"), Y = intConst("y");
  FormulaPtr P = Formula::mkEq(A, X, Y);
  FormulaPtr Q = Formula::mkLe(A, X, Y);
  // (p <=> q) && p => q.
  EXPECT_TRUE(Prover.query(AtpQuery::validity(Formula::mkImplies(
      Formula::mkAnd(Formula::mkIff(P, Q), P), Q))).Verdict);
  // x = y => x <= y (theory-level iff direction).
  EXPECT_TRUE(Prover.query(AtpQuery::validity(Formula::mkImplies(P, Q))).Verdict);
  // x <= y does not imply x = y.
  EXPECT_FALSE(Prover.query(AtpQuery::validity(Formula::mkImplies(Q, P))).Verdict);
}

} // namespace
