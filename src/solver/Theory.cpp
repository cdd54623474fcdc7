//===- Theory.cpp - EUF + LIA combination -------------------------------------===//

#include "solver/Theory.h"

#include "solver/Lia.h"
#include "support/Diagnostics.h"

#include <cassert>
#include <unordered_map>

using namespace pec;

std::vector<char> pec::relevantTerms(const TermArena &Arena,
                                     const std::vector<TheoryLit> &Lits) {
  std::vector<char> Mask(Arena.size(), 0);
  std::vector<TermId> Work;
  auto Push = [&](TermId T) {
    if (!Mask[T]) {
      Mask[T] = 1;
      Work.push_back(T);
    }
  };
  for (const TheoryLit &L : Lits) {
    Push(L.Atom->lhsTerm());
    Push(L.Atom->rhsTerm());
  }
  while (!Work.empty()) {
    TermId T = Work.back();
    Work.pop_back();
    for (TermId A : Arena.node(T).Args)
      Push(A);
  }
  return Mask;
}

namespace {

/// Linearizes Int-sorted terms over opaque LIA variables. When a
/// congruence closure is supplied, any subterm whose class representative
/// is an integer constant is linearized as that constant — this lets
/// products like `x * scale` become linear once `scale = 4` is known.
class Linearizer {
public:
  Linearizer(const TermArena &Arena, LiaSolver &Lia,
             CongruenceClosure *Cc = nullptr)
      : Arena(Arena), Lia(Lia), Cc(Cc) {}

  LinExpr linearize(TermId T) {
    const TermNode &N = Arena.node(T);
    LinExpr E;
    switch (N.Op) {
    case TermOp::IntConst:
      E.Constant = Rational(N.IntVal);
      return E;
    case TermOp::Add: {
      E = linearize(N.Args[0]);
      E += linearize(N.Args[1]);
      return E;
    }
    case TermOp::Sub: {
      E = linearize(N.Args[0]);
      E -= linearize(N.Args[1]);
      return E;
    }
    case TermOp::Neg: {
      E = linearize(N.Args[0]);
      E.scale(Rational(-1));
      return E;
    }
    case TermOp::Mul: {
      LinExpr L = linearize(N.Args[0]);
      LinExpr R = linearize(N.Args[1]);
      if (L.isConstant()) {
        R.scale(L.Constant);
        return R;
      }
      if (R.isConstant()) {
        L.scale(R.Constant);
        return L;
      }
      // Nonlinear: treat the whole product as opaque (or as a constant if
      // congruence pinned its value).
      return opaque(T);
    }
    default:
      return opaque(T);
    }
  }

private:
  /// A term with no linear structure of its own: use the congruence class's
  /// integer constant when there is one (this is what makes `x * scale`
  /// linear once `scale = 4` is known), otherwise an opaque LIA variable.
  /// Folding must NOT happen above structural decomposition — replacing a
  /// whole sum by its class constant would erase its variables' coupling.
  LinExpr opaque(TermId T) {
    LinExpr E;
    if (Cc && Arena.sortOf(T) == Sort::Int) {
      TermId Rep = Cc->find(T);
      const TermNode &RepNode = Arena.node(Rep);
      if (RepNode.Op == TermOp::IntConst) {
        E.Constant = Rational(RepNode.IntVal);
        return E;
      }
    }
    E.add(varFor(T), Rational(1));
    return E;
  }

  uint32_t varFor(TermId T) {
    auto It = Vars.find(T);
    if (It != Vars.end())
      return It->second;
    uint32_t V = Lia.newVar();
    Vars.emplace(T, V);
    return V;
  }

  const TermArena &Arena;
  LiaSolver &Lia;
  CongruenceClosure *Cc;
  std::unordered_map<TermId, uint32_t> Vars;
};

/// Builds a LiaSolver holding the arithmetic consequences of \p Lits plus
/// the extra equalities \p ExtraEqs (pairs of Int terms).
void loadLia(TermArena &Arena, const std::vector<TheoryLit> &Lits,
             const std::vector<std::pair<TermId, TermId>> &ExtraEqs,
             LiaSolver &Lia, Linearizer &Lin, bool &AnyArith) {
  auto IsIntAtom = [&](const FormulaPtr &A) {
    return Arena.sortOf(A->lhsTerm()) == Sort::Int;
  };

  for (const TheoryLit &L : Lits) {
    TermId Lhs = L.Atom->lhsTerm(), Rhs = L.Atom->rhsTerm();
    switch (L.Atom->kind()) {
    case FormulaKind::Eq: {
      if (!IsIntAtom(L.Atom))
        continue;
      LinExpr E = Lin.linearize(Lhs);
      E -= Lin.linearize(Rhs);
      if (L.Positive)
        Lia.addEq(E);
      else
        Lia.addNe(E);
      AnyArith = true;
      break;
    }
    case FormulaKind::Le: {
      LinExpr E = Lin.linearize(Lhs);
      E -= Lin.linearize(Rhs);
      if (L.Positive) {
        Lia.addLe(E); // lhs - rhs <= 0.
      } else {
        // !(lhs <= rhs)  <=>  rhs < lhs  <=>  rhs - lhs + 1 <= 0 over Z.
        E.scale(Rational(-1));
        E.Constant += Rational(1);
        Lia.addLe(E);
      }
      AnyArith = true;
      break;
    }
    case FormulaKind::Lt: {
      LinExpr E = Lin.linearize(Lhs);
      E -= Lin.linearize(Rhs);
      if (L.Positive) {
        E.Constant += Rational(1); // lhs - rhs + 1 <= 0 over Z.
        Lia.addLe(E);
      } else {
        // !(lhs < rhs)  <=>  rhs <= lhs.
        E.scale(Rational(-1));
        Lia.addLe(E);
      }
      AnyArith = true;
      break;
    }
    default:
      reportFatalError("non-atomic formula asserted as theory literal");
    }
  }

  for (const auto &[A, B] : ExtraEqs) {
    LinExpr E = Lin.linearize(A);
    E -= Lin.linearize(B);
    if (E.isConstant() && E.Constant.isZero())
      continue;
    Lia.addEq(E);
    AnyArith = true;
  }
}

/// Candidate Int-term pairs for LIA -> EUF equality propagation: argument
/// pairs at Int positions of two parent terms that agree everywhere else
/// (same head, all other arguments already congruent). Merging such a pair
/// is exactly what congruence needs to make the parents equal.
std::vector<std::pair<TermId, TermId>>
propagationCandidates(const TermArena &Arena, CongruenceClosure &Cc,
                      const std::vector<char> &Relevant) {
  std::vector<std::pair<TermId, TermId>> Out;
  std::vector<TermId> Parents;
  for (TermId T = 0; T < Arena.size(); ++T) {
    if (T < Relevant.size() && !Relevant[T])
      continue;
    if (!Arena.node(T).Args.empty())
      Parents.push_back(T);
  }
  for (size_t I = 0; I < Parents.size(); ++I) {
    const TermNode &P = Arena.node(Parents[I]);
    for (size_t K = I + 1; K < Parents.size(); ++K) {
      const TermNode &Q = Arena.node(Parents[K]);
      if (P.Op != Q.Op || P.Name != Q.Name ||
          P.Args.size() != Q.Args.size())
        continue;
      if (Cc.areEqual(Parents[I], Parents[K]))
        continue;
      // All argument positions must be congruent or Int-sorted.
      size_t IntMismatches = 0;
      std::pair<TermId, TermId> Candidate{InvalidTerm, InvalidTerm};
      bool Viable = true;
      for (size_t A = 0; A < P.Args.size() && Viable; ++A) {
        if (Cc.areEqual(P.Args[A], Q.Args[A]))
          continue;
        if (Arena.sortOf(P.Args[A]) == Sort::Int &&
            Arena.sortOf(Q.Args[A]) == Sort::Int) {
          ++IntMismatches;
          Candidate = {P.Args[A], Q.Args[A]};
        } else {
          Viable = false;
        }
      }
      if (Viable && IntMismatches == 1)
        Out.push_back(Candidate);
    }
  }
  return Out;
}

/// Full-theory inconsistency oracle over a scratch solver, with the
/// relevance mask of the probed literals themselves.
bool scratchInconsistent(TermArena &Arena, const std::vector<TheoryLit> &Lits) {
  if (Lits.empty())
    return false;
  return !TheorySolver::consistent(Arena, Lits, relevantTerms(Arena, Lits));
}

} // namespace

std::vector<TheoryLit> pec::minimalTheoryCore(
    const std::vector<TheoryLit> &Lits,
    const std::function<bool(const std::vector<TheoryLit> &)> &Inconsistent) {
  if (Lits.size() <= 1)
    return Lits;
  // The caller's reasoning may be stronger than the oracle (broader
  // relevance, accumulated propagations). If the oracle cannot see the
  // inconsistency at all, minimizing against it would be unsound — fall
  // back to the full (known-inconsistent) set.
  if (!Inconsistent(Lits))
    return Lits;
  // QuickXplain (Junker 2004): recurse on halves, using what one half
  // pinned down as background (Delta) for the other. The Delta flag marks
  // "background changed since the caller checked", which is when testing
  // the background alone can terminate a branch early.
  std::vector<TheoryLit> Background;
  std::function<std::vector<TheoryLit>(bool, const std::vector<TheoryLit> &)>
      QX = [&](bool HasDelta,
               const std::vector<TheoryLit> &C) -> std::vector<TheoryLit> {
    if (HasDelta && Inconsistent(Background))
      return {};
    if (C.size() == 1)
      return C;
    size_t Half = C.size() / 2;
    std::vector<TheoryLit> C1(C.begin(), C.begin() + Half);
    std::vector<TheoryLit> C2(C.begin() + Half, C.end());
    size_t Mark = Background.size();
    Background.insert(Background.end(), C1.begin(), C1.end());
    std::vector<TheoryLit> X2 = QX(true, C2);
    Background.resize(Mark);
    Background.insert(Background.end(), X2.begin(), X2.end());
    std::vector<TheoryLit> X1 = QX(!X2.empty(), C1);
    Background.resize(Mark);
    X1.insert(X1.end(), X2.begin(), X2.end());
    return X1;
  };
  return QX(false, Lits);
}

//===----------------------------------------------------------------------===//
// TheorySolver
//===----------------------------------------------------------------------===//

TheorySolver::TheorySolver(TermArena &Arena) : Arena(Arena), Cc(Arena) {}

void TheorySolver::addRelevant(const std::vector<char> &Mask) {
  if (Relevant.size() < Mask.size())
    Relevant.resize(Mask.size(), 0);
  for (size_t I = 0; I < Mask.size(); ++I)
    if (Mask[I])
      Relevant[I] = 1;
  Cc.addRelevant(Mask);
}

bool TheorySolver::assertLit(const TheoryLit &L) {
  Trail.push_back(L);
  if (L.Atom->kind() == FormulaKind::Eq) {
    if (L.Positive)
      Cc.addEquality(L.Atom->lhsTerm(), L.Atom->rhsTerm());
    else
      Cc.addDisequality(L.Atom->lhsTerm(), L.Atom->rhsTerm());
    if (Cc.inConflict())
      Conflicted = true;
  }
  return !Conflicted;
}

void TheorySolver::push() {
  Frames.push_back(Frame{Trail.size(), PropagatedEqs.size(), Conflicted});
  Cc.pushState();
}

void TheorySolver::pop() {
  assert(!Frames.empty() && "pop without matching push");
  const Frame F = Frames.back();
  Frames.pop_back();
  Cc.popState();
  Trail.resize(F.TrailSize);
  PropagatedEqs.resize(F.PropEqSize);
  Conflicted = F.Conflicted;
}

bool TheorySolver::checkEuf() {
  if (Conflicted)
    return false;
  if (!Cc.close()) {
    Conflicted = true;
    return false;
  }
  return true;
}

bool TheorySolver::checkFull() {
  if (!checkEuf())
    return false;

  const int MaxRounds = 8;
  for (int Round = 0; Round < MaxRounds; ++Round) {
    // --- LIA pass ---------------------------------------------------------
    std::vector<std::pair<TermId, TermId>> AllEqs = PropagatedEqs;
    Cc.forEachIntEquality(
        [&](TermId A, TermId B) { AllEqs.emplace_back(A, B); });

    LiaSolver Lia; // Clears the rational overflow flag.
    Linearizer Lin(Arena, Lia, &Cc);
    bool AnyArith = false;
    loadLia(Arena, Trail, AllEqs, Lia, Lin, AnyArith);

    std::vector<std::pair<TermId, TermId>> Candidates =
        propagationCandidates(Arena, Cc, Relevant);
    // Pre-create the LIA variables the probe rows will mention, so every
    // probe extends the cached base tableau instead of forcing a rebuild.
    for (const auto &[A, B] : Candidates) {
      (void)Lin.linearize(A);
      (void)Lin.linearize(B);
    }

    if (AnyArith && !Lia.isFeasible()) {
      Conflicted = true;
      return false;
    }
    if (Rational::overflowed()) {
      // Garbage arithmetic: answer "consistent" and propagate nothing, as
      // on an exhausted LIA budget (one-sided safe).
      Overflowed = true;
      return true;
    }

    // --- LIA -> EUF equality propagation ----------------------------------
    bool Progress = false;
    for (const auto &[A, B] : Candidates) {
      if (Cc.areEqual(A, B))
        continue; // Merged via an earlier candidate this round.
      // Does LIA entail A = B? Check both strict orders infeasible; each
      // probe pushes one row onto the shared tableau and pops it again.
      // An overflow in a probe makes isFeasible answer "feasible", so an
      // overflowing probe never entails anything.
      bool Entailed = true;
      for (int Dir = 0; Dir < 2 && Entailed; ++Dir) {
        LiaSolver::Mark M = Lia.mark();
        LinExpr E = Lin.linearize(Dir == 0 ? A : B);
        E -= Lin.linearize(Dir == 0 ? B : A);
        E.Constant += Rational(1); // lhs < rhs as lhs - rhs + 1 <= 0.
        Lia.addLe(E);
        if (Lia.isFeasible())
          Entailed = false;
        Lia.rollback(M);
      }
      if (Entailed) {
        PropagatedEqs.emplace_back(A, B);
        Cc.addEquality(A, B);
        Progress = true;
      }
    }
    if (!Progress)
      return true;
    // Absorb the propagated equalities before the next round.
    if (!Cc.close()) {
      Conflicted = true;
      return false;
    }
  }
  return true; // Round limit: conservative "consistent".
}

int TheorySolver::impliedPolarity(const FormulaPtr &Atom) {
  if (Conflicted || Atom->kind() != FormulaKind::Eq)
    return 0;
  TermId L = Atom->lhsTerm(), R = Atom->rhsTerm();
  if (Cc.areEqual(L, R))
    return 1;
  if (Cc.mustDiffer(L, R))
    return -1;
  return 0;
}

void TheorySolver::propagate(const std::vector<FormulaPtr> &Candidates,
                             std::vector<TheoryLit> &Implied) {
  for (const FormulaPtr &Atom : Candidates) {
    int Pol = impliedPolarity(Atom);
    if (Pol != 0)
      Implied.push_back(TheoryLit{Atom, Pol > 0});
  }
}

std::vector<TheoryLit> TheorySolver::explain(const TheoryLit &L,
                                             size_t Prefix) {
  assert(Prefix <= Trail.size());
  std::vector<TheoryLit> Base(Trail.begin(),
                              Trail.begin() + static_cast<long>(Prefix));
  Base.push_back(TheoryLit{L.Atom, !L.Positive});
  std::vector<TheoryLit> Core =
      minimalTheoryCore(Base, [this](const std::vector<TheoryLit> &Ls) {
        return scratchInconsistent(Arena, Ls);
      });
  // Drop the flipped literal we injected: the caller rebuilds the reason
  // clause as L itself plus the negations of the returned set.
  std::vector<TheoryLit> Out;
  Out.reserve(Core.size());
  for (const TheoryLit &C : Core)
    if (!(C.Atom.get() == L.Atom.get() && C.Positive == !L.Positive))
      Out.push_back(C);
  return Out;
}

std::vector<TheoryLit> TheorySolver::conflictCore(bool Minimize) {
  if (!Minimize)
    return Trail;
  return minimalTheoryCore(Trail, [this](const std::vector<TheoryLit> &Ls) {
    return scratchInconsistent(Arena, Ls);
  });
}

bool TheorySolver::consistent(TermArena &Arena,
                              const std::vector<TheoryLit> &Lits,
                              const std::vector<char> &Relevant) {
  TheorySolver S(Arena);
  S.addRelevant(Relevant);
  for (const TheoryLit &L : Lits)
    if (!S.assertLit(L))
      return false;
  return S.checkFull();
}

bool TheorySolver::model(TermArena &Arena, const std::vector<TheoryLit> &Lits,
                         const std::vector<char> &Relevant, TheoryModel &Out) {
  Out = TheoryModel();

  CongruenceClosure Cc(Arena, Relevant);
  for (const TheoryLit &L : Lits) {
    if (L.Atom->kind() != FormulaKind::Eq)
      continue;
    if (L.Positive)
      Cc.addEquality(L.Atom->lhsTerm(), L.Atom->rhsTerm());
    else
      Cc.addDisequality(L.Atom->lhsTerm(), L.Atom->rhsTerm());
  }
  if (!Cc.check())
    return false;
  Out.Literals = Lits;

  // The Int terms a human can read something into: state cells, array
  // reads, free constants, and uninterpreted applications. Structural
  // arithmetic (Add/Mul/...) is derivable from these.
  std::vector<TermId> Interesting;
  for (TermId T = 0; T < Arena.size(); ++T) {
    if (T < Relevant.size() && !Relevant[T])
      continue;
    if (Arena.sortOf(T) != Sort::Int)
      continue;
    TermOp Op = Arena.node(T).Op;
    if (Op == TermOp::SymConst || Op == TermOp::SelS ||
        Op == TermOp::SelA || Op == TermOp::Apply)
      Interesting.push_back(T);
  }

  LiaSolver Lia; // Clears the rational overflow flag.
  Linearizer Lin(Arena, Lia, &Cc);
  std::vector<std::pair<TermId, TermId>> Eqs;
  Cc.forEachIntEquality([&](TermId A, TermId B) { Eqs.emplace_back(A, B); });
  bool AnyArith = false;
  loadLia(Arena, Lits, Eqs, Lia, Lin, AnyArith);
  // Linearize the terms we want valuations for *before* solving, so their
  // LIA variables exist (unconstrained ones get a default value).
  std::vector<std::pair<TermId, LinExpr>> Wanted;
  Wanted.reserve(Interesting.size());
  for (TermId T : Interesting)
    Wanted.emplace_back(T, Lin.linearize(T));
  if (!Lia.isFeasible())
    return false;
  if (!Lia.hasModel() || Rational::overflowed())
    return true; // Budget ran out or overflowed: literals only.

  Out.Complete = true;
  for (const auto &[T, E] : Wanted) {
    Rational V = E.Constant;
    for (const auto &[Var, C] : E.Coeffs)
      V += C * Rational(Lia.modelValue(Var));
    if (V.isInteger() && !Rational::overflowed())
      Out.Ints.push_back(TheoryModelEntry{T, V.num()});
    else
      Out.Complete = false; // Non-integral or overflowed: skip it.
    Rational::clearOverflow();
  }
  return true;
}
