//===- Interp.cpp - Concrete interpreter -------------------------------------===//

#include "interp/Interp.h"

#include "lang/AstOps.h"
#include "lang/Printer.h"
#include "support/WrapArith.h"

#include <limits>
#include <sstream>

using namespace pec;

int64_t State::getScalar(Symbol Name) const {
  auto It = Scalars.find(Name);
  return It == Scalars.end() ? 0 : It->second;
}

void State::setScalar(Symbol Name, int64_t Value) { Scalars[Name] = Value; }

int64_t State::getArrayElem(Symbol Array, int64_t Index) const {
  auto It = Arrays.find(Array);
  if (It == Arrays.end())
    return 0;
  auto ElemIt = It->second.find(Index);
  return ElemIt == It->second.end() ? 0 : ElemIt->second;
}

void State::setArrayElem(Symbol Array, int64_t Index, int64_t Value) {
  Arrays[Array][Index] = Value;
}

bool State::operator==(const State &Other) const {
  // States compare up to the default value 0: a variable absent on one side
  // must be 0 on the other.
  auto ScalarsMatch = [](const State &A, const State &B) {
    for (const auto &[Name, Value] : A.Scalars)
      if (Value != B.getScalar(Name))
        return false;
    return true;
  };
  auto ArraysMatch = [](const State &A, const State &B) {
    for (const auto &[Name, Elems] : A.Arrays)
      for (const auto &[Index, Value] : Elems)
        if (Value != B.getArrayElem(Name, Index))
          return false;
    return true;
  };
  return ScalarsMatch(*this, Other) && ScalarsMatch(Other, *this) &&
         ArraysMatch(*this, Other) && ArraysMatch(Other, *this);
}

std::string State::str() const {
  std::ostringstream OS;
  OS << '{';
  bool First = true;
  for (const auto &[Name, Value] : Scalars) {
    if (!First)
      OS << ", ";
    First = false;
    OS << Name.str() << '=' << Value;
  }
  for (const auto &[Name, Elems] : Arrays)
    for (const auto &[Index, Value] : Elems) {
      if (!First)
        OS << ", ";
      First = false;
      OS << Name.str() << '[' << Index << "]=" << Value;
    }
  OS << '}';
  return OS.str();
}

const char *pec::execStatusName(ExecStatus S) {
  switch (S) {
  case ExecStatus::Ok:        return "ok";
  case ExecStatus::Stuck:     return "stuck";
  case ExecStatus::OutOfFuel: return "out-of-fuel";
  case ExecStatus::DivByZero: return "div-by-zero";
  case ExecStatus::OobIndex:  return "oob-index";
  }
  return "unknown";
}

namespace {

/// Expression evaluator with a structured trap channel. The classic
/// `evalExpr` entry point wraps this with the bounds model disabled.
class Evaluator {
public:
  Evaluator(const State &S, int64_t ArrayBound)
      : S(S), ArrayBound(ArrayBound) {}

  ExecStatus status() const { return Trap; }
  const ExprPtr &trapExpr() const { return TrapAt; }

  int64_t eval(const ExprPtr &E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      return E->intValue();
    case ExprKind::Var:
      return S.getScalar(E->name());
    case ExprKind::MetaVar:
    case ExprKind::MetaExpr:
      reportFatalError("interpreting a parameterized expression");
    case ExprKind::ArrayRead: {
      int64_t Idx = eval(E->index());
      if (!checkBound(Idx, E))
        return 0;
      return S.getArrayElem(E->name(), Idx);
    }
    case ExprKind::Binary: {
      int64_t L = eval(E->lhs());
      // Short-circuit logical operators.
      if (E->binOp() == BinOp::And && L == 0)
        return 0;
      if (E->binOp() == BinOp::Or && L != 0)
        return 1;
      int64_t R = eval(E->rhs());
      switch (E->binOp()) {
      case BinOp::Add: return wrapAdd(L, R);
      case BinOp::Sub: return wrapSub(L, R);
      case BinOp::Mul: return wrapMul(L, R);
      case BinOp::Div:
        if (R == 0) {
          trap(ExecStatus::DivByZero, E);
          return 0;
        }
        // INT64_MIN / -1 overflows (UB in C++); wrap like the other ops.
        if (L == std::numeric_limits<int64_t>::min() && R == -1)
          return L;
        return L / R;
      case BinOp::Mod:
        if (R == 0) {
          trap(ExecStatus::DivByZero, E);
          return 0;
        }
        if (L == std::numeric_limits<int64_t>::min() && R == -1)
          return 0;
        return L % R;
      case BinOp::Lt:  return L < R;
      case BinOp::Le:  return L <= R;
      case BinOp::Gt:  return L > R;
      case BinOp::Ge:  return L >= R;
      case BinOp::Eq:  return L == R;
      case BinOp::Ne:  return L != R;
      case BinOp::And: return R != 0;
      case BinOp::Or:  return R != 0;
      }
      return 0;
    }
    case ExprKind::Unary: {
      int64_t V = eval(E->lhs());
      switch (E->unOp()) {
      case UnOp::Neg: return wrapNeg(V);
      case UnOp::Not: return V == 0;
      }
      return 0;
    }
    }
    return 0;
  }

  /// Bounds model for assignment targets (which bypass eval for the cell).
  bool checkBound(int64_t Idx, const ExprPtr &At) {
    if (ArrayBound > 0 && (Idx < 0 || Idx >= ArrayBound)) {
      trap(ExecStatus::OobIndex, At);
      return false;
    }
    return true;
  }

private:
  void trap(ExecStatus St, const ExprPtr &E) {
    // First trap wins: it is the one concrete execution reaches first in
    // the (left-to-right) evaluation order.
    if (Trap == ExecStatus::Ok) {
      Trap = St;
      TrapAt = E;
    }
  }

  const State &S;
  int64_t ArrayBound;
  ExecStatus Trap = ExecStatus::Ok;
  ExprPtr TrapAt;
};

std::string describeTrap(ExecStatus St, const ExprPtr &At) {
  std::ostringstream OS;
  switch (St) {
  case ExecStatus::DivByZero:
    OS << "division by zero";
    break;
  case ExecStatus::OobIndex:
    OS << "array index out of bounds";
    break;
  case ExecStatus::OutOfFuel:
    return "step budget exhausted";
  case ExecStatus::Stuck:
    return "a false assume was reached";
  case ExecStatus::Ok:
    return "";
  }
  if (At)
    OS << " evaluating " << printExpr(At);
  return OS.str();
}

class Interpreter {
public:
  Interpreter(State Initial, const InterpOptions &Options)
      : Current(std::move(Initial)), Options(Options), Fuel(Options.Fuel) {}

  ExecResult finish(ExecStatus Status) {
    ExecResult R;
    R.Status = Status;
    R.Final = std::move(Current);
    R.TrapDetail = std::move(TrapDetail);
    if (R.TrapDetail.empty() && Status != ExecStatus::Ok)
      R.TrapDetail = describeTrap(Status, nullptr);
    return R;
  }

  /// Executes \p S; returns Ok or the failing status.
  ExecStatus exec(const StmtPtr &S) {
    if (Fuel == 0)
      return ExecStatus::OutOfFuel;
    --Fuel;
    switch (S->kind()) {
    case StmtKind::Skip:
      return ExecStatus::Ok;
    case StmtKind::Assign: {
      Evaluator Ev(Current, Options.ArrayBound);
      int64_t V = Ev.eval(S->value());
      const LValue &T = S->target();
      if (T.Index) {
        int64_t Idx = Ev.eval(T.Index);
        Ev.checkBound(Idx, T.Index);
        if (Ev.status() != ExecStatus::Ok)
          return trapped(Ev);
        Current.setArrayElem(T.Name, Idx, V);
      } else {
        if (Ev.status() != ExecStatus::Ok)
          return trapped(Ev);
        Current.setScalar(T.Name, V);
      }
      return ExecStatus::Ok;
    }
    case StmtKind::Seq:
      for (const StmtPtr &C : S->stmts())
        if (ExecStatus St = exec(C); St != ExecStatus::Ok)
          return St;
      return ExecStatus::Ok;
    case StmtKind::If: {
      int64_t C = 0;
      if (ExecStatus St = cond(S, C); St != ExecStatus::Ok)
        return St;
      if (C != 0)
        return exec(S->thenStmt());
      if (S->elseStmt())
        return exec(S->elseStmt());
      return ExecStatus::Ok;
    }
    case StmtKind::While: {
      while (true) {
        if (Fuel == 0)
          return ExecStatus::OutOfFuel;
        --Fuel;
        int64_t C = 0;
        if (ExecStatus St = cond(S, C); St != ExecStatus::Ok)
          return St;
        if (C == 0)
          return ExecStatus::Ok;
        if (ExecStatus St = exec(S->body()); St != ExecStatus::Ok)
          return St;
      }
    }
    case StmtKind::For:
      // Execute via the canonical lowering so semantics are defined once.
      return exec(lowerFors(S));
    case StmtKind::Assume: {
      int64_t C = 0;
      if (ExecStatus St = cond(S, C); St != ExecStatus::Ok)
        return St;
      return C != 0 ? ExecStatus::Ok : ExecStatus::Stuck;
    }
    case StmtKind::MetaStmt:
      reportFatalError("interpreting a parameterized statement");
    }
    return ExecStatus::Ok;
  }

private:
  ExecStatus cond(const StmtPtr &S, int64_t &Out) {
    Evaluator Ev(Current, Options.ArrayBound);
    Out = Ev.eval(S->cond());
    if (Ev.status() != ExecStatus::Ok)
      return trapped(Ev);
    return ExecStatus::Ok;
  }

  ExecStatus trapped(const Evaluator &Ev) {
    if (TrapDetail.empty())
      TrapDetail = describeTrap(Ev.status(), Ev.trapExpr());
    return Ev.status();
  }

  State Current;
  InterpOptions Options;
  uint64_t Fuel;
  std::string TrapDetail;
};

} // namespace

int64_t pec::evalExpr(const ExprPtr &E, const State &S, bool &DivByZero) {
  Evaluator Ev(S, /*ArrayBound=*/0);
  int64_t V = Ev.eval(E);
  if (Ev.status() == ExecStatus::DivByZero)
    DivByZero = true;
  return V;
}

ExecResult pec::run(const StmtPtr &Program, const State &Initial,
                    uint64_t Fuel) {
  InterpOptions Options;
  Options.Fuel = Fuel;
  return run(Program, Initial, Options);
}

ExecResult pec::run(const StmtPtr &Program, const State &Initial,
                    const InterpOptions &Options) {
  Interpreter I(Initial, Options);
  ExecStatus St = I.exec(Program);
  return I.finish(St);
}
