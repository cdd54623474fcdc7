//===- Lia.h - Linear integer arithmetic solver ------------------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Feasibility of conjunctions of linear constraints over the integers,
/// implemented as a general simplex over the rationals (Dutertre–de Moura
/// style: every variable carries optional lower/upper bounds; each
/// constraint introduces a slack variable defined by a tableau row) plus
/// branch-and-bound for integrality and case splits for disequalities.
///
/// Variables are opaque identifiers supplied by the caller (the theory
/// combiner maps non-arithmetic Int terms to LIA variables). Since all PEC
/// variables denote integers, strict bounds are tightened exactly:
/// `t < u` becomes `t <= u - 1`.
///
/// The theory combiner builds a solver for each full check and each model
/// extraction; the partial checks at propagation fixpoints are EUF-only
/// and never build one.
///
/// Incompleteness is one-sided: when the branch-and-bound budget runs out,
/// or a value overflows int64 (Rational.h), the solver answers "feasible",
/// which makes the ATP answer "not valid" — the safe direction for a
/// correctness checker.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SOLVER_LIA_H
#define PEC_SOLVER_LIA_H

#include "solver/Rational.h"

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace pec {

/// A linear form sum(Coeffs[v] * v) + Constant over LIA variables.
struct LinExpr {
  std::map<uint32_t, Rational> Coeffs;
  Rational Constant;

  void add(uint32_t Var, const Rational &C) {
    Rational &Slot = Coeffs[Var];
    Slot += C;
    if (Slot.isZero())
      Coeffs.erase(Var);
  }
  LinExpr &operator+=(const LinExpr &O) {
    for (const auto &[V, C] : O.Coeffs)
      add(V, C);
    Constant += O.Constant;
    return *this;
  }
  LinExpr &operator-=(const LinExpr &O) {
    for (const auto &[V, C] : O.Coeffs)
      add(V, -C);
    Constant -= O.Constant;
    return *this;
  }
  void scale(const Rational &C) {
    if (C.isZero()) { // No zero coefficient: isConstant() must see it.
      *this = LinExpr();
      return;
    }
    for (auto &[V, Coef] : Coeffs)
      Coef *= C;
    Constant *= C;
  }
  bool isConstant() const { return Coeffs.empty(); }
};

/// Conjunction-of-constraints solver. Usage: create variables, add
/// constraints, call isFeasible().
///
/// Repeated isFeasible() calls reuse a cached *base tableau*: rows for
/// constraints already seen are kept (pristine — solving works on a copy),
/// and only constraints added since the last call get new rows. Paired
/// with mark()/rollback() this makes entailment probing cheap: probe
/// constraints push one row each and pop it on rollback instead of
/// rebuilding the whole tableau.
class LiaSolver {
public:
  /// Construction clears the thread's rational overflow flag, so every
  /// constraint built for this solver afterwards, on this thread, is
  /// covered by the overflow check of its answers.
  LiaSolver() { Rational::clearOverflow(); }

  uint32_t newVar();
  size_t numVars() const { return NumUserVars; }

  /// Adds `E <= 0`, `E = 0`, or `E != 0` (E over user variables).
  void addLe(const LinExpr &E);
  void addEq(const LinExpr &E);
  void addNe(const LinExpr &E);

  /// A snapshot of the constraint set. Variables are not snapshotted:
  /// vars created after a mark survive its rollback (unconstrained), so
  /// callers may cache term-to-var maps across probes.
  struct Mark {
    size_t LeEq;
    size_t Ne;
  };
  Mark mark() const { return Mark{LeEqConstraints.size(), NeConstraints.size()}; }
  /// Retracts every constraint added since \p M. Marks must be rolled
  /// back LIFO for the base tableau to stay reusable; out-of-order
  /// rollbacks are legal but force a rebuild on the next isFeasible().
  void rollback(const Mark &M);

  /// Integer feasibility of all constraints added so far. Budget counts
  /// branch-and-bound + disequality-split nodes. "Feasible", without a
  /// model, once the thread's rational overflow flag is set.
  bool isFeasible(uint32_t Budget = 4096);

  /// After isFeasible() returned true: the satisfying integer value of a
  /// user variable.
  int64_t modelValue(uint32_t Var) const;

  /// True when the last `isFeasible() == true` run reached an integral
  /// leaf. Budget exhaustion answers "feasible" without a model; callers
  /// extracting counterexamples must check this before `modelValue`.
  bool hasModel() const { return Model.size() == NumUserVars; }

private:
  struct Bound {
    std::optional<Rational> Lower;
    std::optional<Rational> Upper;
  };

  /// The tableau state (cloned at branch points).
  struct Tableau {
    // Rows: basic variable index -> linear form over nonbasic variables.
    // All variables (user + slack) share one index space.
    std::vector<std::map<uint32_t, Rational>> Rows; ///< Indexed by row id.
    std::vector<int32_t> RowOfVar;  ///< Var -> row id, or -1 if nonbasic.
    std::vector<uint32_t> VarOfRow; ///< Row id -> basic var.
    std::vector<Bound> Bounds;
    std::vector<Rational> Value; ///< Current assignment of every variable.
  };

  bool solve(Tableau T, std::vector<LinExpr> PendingNe, uint32_t &Budget,
             std::vector<Rational> &ModelOut);
  static bool simplexCheck(Tableau &T);
  static void pivot(Tableau &T, uint32_t Row, uint32_t EnterVar);
  static void updateNonbasic(Tableau &T, uint32_t Var, const Rational &V);
  static Rational evalRow(const Tableau &T, uint32_t Row);

  void ensureBaseVar(uint32_t Var);
  void rebuildBase();
  void extendBase();

  uint32_t NumUserVars = 0;
  std::vector<std::pair<LinExpr, bool>> LeEqConstraints; ///< (expr, isEq).
  std::vector<LinExpr> NeConstraints;
  std::vector<Rational> Model;

  /// One record per constraint built into the base, in build order.
  /// Degenerate constant constraints get no row (Row == -1) but still
  /// burn a slack id so the numbering matches a from-scratch build.
  struct BuiltRecord {
    bool IsNe;
    uint32_t Index; ///< Into LeEqConstraints or NeConstraints.
    int32_t Row;    ///< Base row id, or -1 for degenerate constraints.
    uint32_t Slack;
    bool Violated; ///< Degenerate and unsatisfiable.
  };

  Tableau Base;
  std::vector<LinExpr> BasePendingNe;
  std::vector<BuiltRecord> Built;
  bool BaseValid = false;
  uint32_t BaseNextSlack = 0;
  uint32_t BuiltUserVars = 0;
  size_t BuiltLe = 0;      ///< LeEqConstraints prefix length built.
  size_t BuiltNeCount = 0; ///< NeConstraints prefix length built.
  size_t BaseViolated = 0; ///< Violated degenerate constraints built.
};

} // namespace pec

#endif // PEC_SOLVER_LIA_H
