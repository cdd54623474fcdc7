//===- Lia.cpp - General simplex + branch and bound ---------------------------===//

#include "solver/Lia.h"

#include <algorithm>
#include <cassert>

using namespace pec;

uint32_t LiaSolver::newVar() { return NumUserVars++; }

void LiaSolver::addLe(const LinExpr &E) {
  LeEqConstraints.emplace_back(E, false);
}

void LiaSolver::addEq(const LinExpr &E) {
  LeEqConstraints.emplace_back(E, true);
}

void LiaSolver::addNe(const LinExpr &E) { NeConstraints.push_back(E); }

Rational LiaSolver::evalRow(const Tableau &T, uint32_t Row) {
  Rational V;
  for (const auto &[Var, C] : T.Rows[Row])
    V += C * T.Value[Var];
  return V;
}

void LiaSolver::updateNonbasic(Tableau &T, uint32_t Var, const Rational &V) {
  assert(T.RowOfVar[Var] < 0 && "variable must be nonbasic");
  Rational Delta = V - T.Value[Var];
  if (Delta.isZero())
    return;
  T.Value[Var] = V;
  for (size_t R = 0; R < T.Rows.size(); ++R) {
    auto It = T.Rows[R].find(Var);
    if (It != T.Rows[R].end())
      T.Value[T.VarOfRow[R]] += It->second * Delta;
  }
}

void LiaSolver::pivot(Tableau &T, uint32_t Row, uint32_t EnterVar) {
  uint32_t LeaveVar = T.VarOfRow[Row];
  std::map<uint32_t, Rational> OldRow = std::move(T.Rows[Row]);
  Rational A = OldRow[EnterVar];
  assert(!A.isZero() && "pivot on zero coefficient");

  // New row: EnterVar = (LeaveVar - sum_{k != EnterVar} a_k x_k) / A.
  std::map<uint32_t, Rational> NewRow;
  Rational InvA = Rational(1) / A;
  NewRow[LeaveVar] = InvA;
  for (const auto &[Var, C] : OldRow) {
    if (Var == EnterVar)
      continue;
    Rational NC = -C * InvA;
    if (!NC.isZero())
      NewRow[Var] = NC;
  }
  T.Rows[Row] = NewRow;
  T.VarOfRow[Row] = EnterVar;
  T.RowOfVar[EnterVar] = static_cast<int32_t>(Row);
  T.RowOfVar[LeaveVar] = -1;

  // Substitute EnterVar in every other row.
  for (size_t R = 0; R < T.Rows.size(); ++R) {
    if (R == Row)
      continue;
    auto It = T.Rows[R].find(EnterVar);
    if (It == T.Rows[R].end())
      continue;
    Rational B = It->second;
    T.Rows[R].erase(It);
    for (const auto &[Var, C] : NewRow) {
      Rational &Slot = T.Rows[R][Var];
      Slot += B * C;
      if (Slot.isZero())
        T.Rows[R].erase(Var);
    }
  }
}

bool LiaSolver::simplexCheck(Tableau &T) {
  uint32_t NumAllVars = static_cast<uint32_t>(T.Value.size());

  // Bounds sanity + clamp nonbasic variables into their bounds.
  for (uint32_t V = 0; V < NumAllVars; ++V) {
    const Bound &B = T.Bounds[V];
    if (B.Lower && B.Upper && *B.Lower > *B.Upper)
      return false;
    if (T.RowOfVar[V] >= 0)
      continue;
    if (B.Lower && T.Value[V] < *B.Lower)
      updateNonbasic(T, V, *B.Lower);
    else if (B.Upper && T.Value[V] > *B.Upper)
      updateNonbasic(T, V, *B.Upper);
  }

  // Main loop with Bland's rule (smallest index first) for termination.
  // After an overflow the arithmetic is no longer exact, so Bland's rule
  // no longer guarantees that; stop and let the caller answer "feasible".
  const uint32_t MaxIters = 100000;
  for (uint32_t Iter = 0; Iter < MaxIters && !Rational::overflowed(); ++Iter) {
    // Find the smallest basic variable violating a bound.
    int32_t ViolatedRow = -1;
    bool NeedIncrease = false;
    Rational Target;
    uint32_t BestVar = ~0u;
    for (size_t R = 0; R < T.Rows.size(); ++R) {
      uint32_t Xi = T.VarOfRow[R];
      const Bound &B = T.Bounds[Xi];
      if (B.Lower && T.Value[Xi] < *B.Lower && Xi < BestVar) {
        ViolatedRow = static_cast<int32_t>(R);
        NeedIncrease = true;
        Target = *B.Lower;
        BestVar = Xi;
      } else if (B.Upper && T.Value[Xi] > *B.Upper && Xi < BestVar) {
        ViolatedRow = static_cast<int32_t>(R);
        NeedIncrease = false;
        Target = *B.Upper;
        BestVar = Xi;
      }
    }
    if (ViolatedRow < 0)
      return true;

    uint32_t R = static_cast<uint32_t>(ViolatedRow);
    uint32_t Xi = T.VarOfRow[R];
    // Find the smallest suitable nonbasic variable.
    uint32_t Enter = ~0u;
    for (const auto &[Xj, A] : T.Rows[R]) {
      const Bound &B = T.Bounds[Xj];
      bool CanUse;
      if (NeedIncrease)
        CanUse = (A.isPositive() && (!B.Upper || T.Value[Xj] < *B.Upper)) ||
                 (A.isNegative() && (!B.Lower || T.Value[Xj] > *B.Lower));
      else
        CanUse = (A.isPositive() && (!B.Lower || T.Value[Xj] > *B.Lower)) ||
                 (A.isNegative() && (!B.Upper || T.Value[Xj] < *B.Upper));
      if (CanUse && Xj < Enter)
        Enter = Xj;
    }
    if (Enter == ~0u)
      return false; // No way to fix Xi: infeasible.

    // pivotAndUpdate(Xi, Enter, Target).
    Rational A = T.Rows[R][Enter];
    Rational Theta = (Target - T.Value[Xi]) / A;
    T.Value[Xi] = Target;
    T.Value[Enter] += Theta;
    for (size_t R2 = 0; R2 < T.Rows.size(); ++R2) {
      if (R2 == R)
        continue;
      auto It = T.Rows[R2].find(Enter);
      if (It != T.Rows[R2].end())
        T.Value[T.VarOfRow[R2]] += It->second * Theta;
    }
    pivot(T, R, Enter);
  }
  // Iteration cap exhausted: answer "feasible" (the conservative direction
  // for a validity checker). Unreachable with Bland's rule in practice.
  return true;
}

bool LiaSolver::solve(Tableau T, std::vector<LinExpr> PendingNe,
                      uint32_t &Budget, std::vector<Rational> &ModelOut) {
  // Depth-first branch and bound. A split goes on with its left branch
  // and leaves the right one on an explicit stack, so the split depth (up
  // to the node budget) costs heap, not call stack.
  struct Branch {
    Tableau T;
    std::vector<LinExpr> PendingNe;
  };
  std::vector<Branch> Right;
  while (true) {
    if (Budget == 0)
      return true; // Budget exhausted: conservative "feasible".
    --Budget;

    if (!simplexCheck(T)) {
      if (Right.empty())
        return false;
      T = std::move(Right.back().T);
      PendingNe = std::move(Right.back().PendingNe);
      Right.pop_back();
      continue;
    }
    if (Rational::overflowed())
      return true; // The values are garbage: conservative "feasible".

    // Branch and bound: force user variables to integer values. Left:
    // V <= floor; right: V >= floor + 1.
    uint32_t V = 0;
    while (V < NumUserVars && T.Value[V].isInteger())
      ++V;
    if (V < NumUserVars) {
      int64_t Floor = T.Value[V].floor();
      Branch R{T, PendingNe};
      Bound &RB = R.T.Bounds[V];
      if (!RB.Lower || Rational(Floor + 1) > *RB.Lower)
        RB.Lower = Rational(Floor + 1);
      Right.push_back(std::move(R));
      Bound &LB = T.Bounds[V];
      if (!LB.Upper || Rational(Floor) < *LB.Upper)
        LB.Upper = Rational(Floor);
      continue;
    }

    // Disequality splits. Ne slack variables are the trailing ones; each
    // pending Ne is (slack var, forbidden value) encoded as LinExpr with a
    // single variable. Left: slack <= forbidden - 1; right: slack >=
    // forbidden + 1; neither keeps the split disequality.
    size_t I = 0;
    for (; I < PendingNe.size(); ++I) {
      const LinExpr &Ne = PendingNe[I];
      assert(Ne.Coeffs.size() == 1);
      if (T.Value[Ne.Coeffs.begin()->first] == -Ne.Constant)
        break;
    }
    if (I < PendingNe.size()) {
      uint32_t SlackVar = PendingNe[I].Coeffs.begin()->first;
      Rational Forbidden = -PendingNe[I].Constant;
      PendingNe.erase(PendingNe.begin() + static_cast<long>(I));
      Branch R{T, PendingNe};
      Bound &RB = R.T.Bounds[SlackVar];
      Rational RightLimit = Forbidden + Rational(1);
      if (!RB.Lower || RightLimit > *RB.Lower)
        RB.Lower = RightLimit;
      Right.push_back(std::move(R));
      Bound &LB = T.Bounds[SlackVar];
      Rational LeftLimit = Forbidden - Rational(1);
      if (!LB.Upper || LeftLimit < *LB.Upper)
        LB.Upper = LeftLimit;
      continue;
    }

    // Feasible, integral, and all disequalities satisfied.
    ModelOut.assign(T.Value.begin(), T.Value.begin() + NumUserVars);
    return true;
  }
}

void LiaSolver::ensureBaseVar(uint32_t Var) {
  while (Base.RowOfVar.size() <= Var) {
    Base.RowOfVar.push_back(-1);
    Base.Bounds.emplace_back();
    Base.Value.emplace_back(Rational(0));
  }
}

void LiaSolver::rebuildBase() {
  Base = Tableau{};
  BasePendingNe.clear();
  Built.clear();
  BaseValid = true;
  BaseNextSlack = NumUserVars;
  BuiltUserVars = NumUserVars;
  BuiltLe = 0;
  BuiltNeCount = 0;
  BaseViolated = 0;
  extendBase();
}

/// Appends rows for the constraints added since the last build. A fresh
/// build runs through here too, reproducing the classic ordering (user
/// vars, then Le/Eq slacks, then Ne slacks).
void LiaSolver::extendBase() {
  ensureBaseVar(NumUserVars ? NumUserVars - 1 : 0);

  auto AddRow = [&](const LinExpr &E) -> uint32_t {
    uint32_t Slack = BaseNextSlack++;
    ensureBaseVar(Slack);
    std::map<uint32_t, Rational> Row;
    for (const auto &[Var, C] : E.Coeffs)
      Row[Var] = C;
    Base.RowOfVar[Slack] = static_cast<int32_t>(Base.Rows.size());
    Base.VarOfRow.push_back(Slack);
    Base.Rows.push_back(std::move(Row));
    Base.Value[Slack] = evalRow(Base, static_cast<uint32_t>(Base.Rows.size() - 1));
    return Slack;
  };

  // E <= 0  <=>  slack = E - const <= -const.
  for (; BuiltLe < LeEqConstraints.size(); ++BuiltLe) {
    const auto &[E, IsEq] = LeEqConstraints[BuiltLe];
    BuiltRecord R{false, static_cast<uint32_t>(BuiltLe), -1, 0, false};
    if (E.isConstant()) {
      // Degenerate constant constraint: no row, but burn the slack id.
      R.Slack = BaseNextSlack++;
      ensureBaseVar(R.Slack);
      R.Violated = IsEq ? !E.Constant.isZero() : E.Constant.isPositive();
      if (R.Violated)
        ++BaseViolated;
      Built.push_back(R);
      continue;
    }
    uint32_t Slack = AddRow(E);
    Rational Rhs = -E.Constant;
    Base.Bounds[Slack].Upper = Rhs;
    if (IsEq)
      Base.Bounds[Slack].Lower = Rhs;
    R.Row = static_cast<int32_t>(Base.Rows.size() - 1);
    R.Slack = Slack;
    Built.push_back(R);
  }

  for (; BuiltNeCount < NeConstraints.size(); ++BuiltNeCount) {
    const LinExpr &E = NeConstraints[BuiltNeCount];
    BuiltRecord R{true, static_cast<uint32_t>(BuiltNeCount), -1, 0, false};
    if (E.isConstant()) {
      R.Slack = BaseNextSlack++;
      ensureBaseVar(R.Slack);
      R.Violated = E.Constant.isZero();
      if (R.Violated)
        ++BaseViolated;
      Built.push_back(R);
      continue;
    }
    uint32_t Slack = AddRow(E);
    // Record as "slack != -const".
    LinExpr Marker;
    Marker.add(Slack, Rational(1));
    Marker.Constant = E.Constant;
    BasePendingNe.push_back(std::move(Marker));
    R.Row = static_cast<int32_t>(Base.Rows.size() - 1);
    R.Slack = Slack;
    Built.push_back(R);
  }
}

void LiaSolver::rollback(const Mark &M) {
  assert(M.LeEq <= LeEqConstraints.size() && M.Ne <= NeConstraints.size() &&
         "rollback past the current constraint set");
  // Pop built records beyond the mark. With LIFO marks they form a suffix
  // of the build order; anything else invalidates the cached base.
  while (BaseValid && !Built.empty()) {
    const BuiltRecord &R = Built.back();
    bool Beyond = R.IsNe ? (R.Index >= M.Ne) : (R.Index >= M.LeEq);
    if (!Beyond)
      break;
    if (R.Row >= 0) {
      if (static_cast<size_t>(R.Row) + 1 != Base.Rows.size()) {
        BaseValid = false;
        break;
      }
      Base.Rows.pop_back();
      Base.VarOfRow.pop_back();
      Base.RowOfVar[R.Slack] = -1;
      Base.Bounds[R.Slack] = Bound{};
      Base.Value[R.Slack] = Rational(0);
      if (R.IsNe) {
        assert(!BasePendingNe.empty());
        BasePendingNe.pop_back();
      }
    } else if (R.Violated) {
      --BaseViolated;
    }
    if (R.Slack + 1 == BaseNextSlack)
      BaseNextSlack = R.Slack;
    if (R.IsNe)
      --BuiltNeCount;
    else
      --BuiltLe;
    Built.pop_back();
  }
  if (BuiltLe > M.LeEq || BuiltNeCount > M.Ne)
    BaseValid = false; // Interleaved history: rebuild next time.
  LeEqConstraints.resize(M.LeEq);
  NeConstraints.resize(M.Ne);
  if (!BaseValid) {
    BuiltLe = std::min(BuiltLe, M.LeEq);
    BuiltNeCount = std::min(BuiltNeCount, M.Ne);
  }
}

bool LiaSolver::isFeasible(uint32_t Budget) {
  if (!BaseValid || BuiltUserVars != NumUserVars)
    rebuildBase();
  else
    extendBase();

  Model.clear();
  // Once a value has overflowed (here, or in a constraint built since this
  // solver was constructed), every answer is "feasible", without a model.
  if (Rational::overflowed()) {
    BaseValid = false; // The base may hold garbage: never reuse it.
    return true;
  }
  // A violated degenerate constraint refutes the set before the tableau
  // is even copied.
  if (BaseViolated > 0)
    return false;
  // Solve on a copy: the base stays pristine for the next call.
  bool Feasible = solve(Base, BasePendingNe, Budget, Model);
  if (Rational::overflowed()) {
    Model.clear();
    return true;
  }
  return Feasible;
}

int64_t LiaSolver::modelValue(uint32_t Var) const {
  assert(Var < Model.size() && "no model available");
  assert(Model[Var].isInteger());
  return Model[Var].num();
}
