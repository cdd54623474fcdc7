//===- Permute.cpp - Loop reordering pre-pass ------------------------------------===//

#include "pec/Permute.h"

#include "lang/AstOps.h"
#include "pec/Facts.h"
#include "solver/Rational.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <optional>

using namespace pec;

namespace {

//===----------------------------------------------------------------------===//
// Canonical loop nests
//===----------------------------------------------------------------------===//

/// One loop level with *inclusive* bounds Lo..Hi and a direction.
struct NestLevel {
  Symbol IndexVar;
  bool Descending = false;
  ExprPtr Lo;
  ExprPtr Hi;
};

/// A perfect nest `for i1 .. for in { S[e1, ..., ek] }`.
struct LoopNest {
  std::vector<NestLevel> Levels;
  StmtPtr Body; ///< MetaStmt.

  std::set<Symbol> indexVars() const {
    std::set<Symbol> Out;
    for (const NestLevel &L : Levels)
      Out.insert(L.IndexVar);
    return Out;
  }
};

/// Decomposes a `for` condition into an inclusive bound. Ascending loops
/// accept `I < X` / `I <= X`; descending accept `I > X` / `I >= X`.
std::optional<ExprPtr> boundFromCond(const ExprPtr &Cond, Symbol Index,
                                     bool Descending) {
  if (Cond->kind() != ExprKind::Binary)
    return std::nullopt;
  const ExprPtr &L = Cond->lhs();
  bool LhsIsIndex = (L->kind() == ExprKind::Var ||
                     L->kind() == ExprKind::MetaVar) &&
                    L->name() == Index;
  if (!LhsIsIndex)
    return std::nullopt;
  const ExprPtr &R = Cond->rhs();
  if (!Descending) {
    if (Cond->binOp() == BinOp::Le)
      return R;
    if (Cond->binOp() == BinOp::Lt)
      return Expr::mkBinary(BinOp::Sub, R, Expr::mkInt(1));
  } else {
    if (Cond->binOp() == BinOp::Ge)
      return R;
    if (Cond->binOp() == BinOp::Gt)
      return Expr::mkBinary(BinOp::Add, R, Expr::mkInt(1));
  }
  return std::nullopt;
}

std::optional<LoopNest> extractNest(const StmtPtr &S) {
  LoopNest Nest;
  StmtPtr Cur = S;
  while (Cur->kind() == StmtKind::For) {
    NestLevel Level;
    Level.IndexVar = Cur->indexVar();
    Level.Descending = Cur->stepDelta() < 0;
    std::optional<ExprPtr> Bound =
        boundFromCond(Cur->cond(), Level.IndexVar, Level.Descending);
    if (!Bound)
      return std::nullopt;
    if (!Level.Descending) {
      Level.Lo = Cur->init();
      Level.Hi = *Bound;
    } else {
      Level.Hi = Cur->init();
      Level.Lo = *Bound;
    }
    Nest.Levels.push_back(std::move(Level));
    Cur = Cur->body();
  }
  if (Nest.Levels.empty() || Cur->kind() != StmtKind::MetaStmt)
    return std::nullopt;
  Nest.Body = Cur;
  return Nest;
}

//===----------------------------------------------------------------------===//
// Affine forms over index variables
//===----------------------------------------------------------------------===//

/// sum(IdxCoeffs[v] * v) + Rest, where Rest is a loop-invariant term.
struct AffineForm {
  std::map<Symbol, Rational> IdxCoeffs;
  TermId Rest = InvalidTerm;
};

bool containsIndexVar(const ExprPtr &E, const std::set<Symbol> &IndexVars) {
  MetaVars MV;
  collectMetaVars(E, MV);
  for (Symbol V : MV.VarVars)
    if (IndexVars.count(V))
      return true;
  return false;
}

/// Evaluates a purely numeric expression, if it is one and every value on
/// the way fits in int64 (no wrapped constant may stand for it).
std::optional<int64_t> numericValue(const ExprPtr &E) {
  switch (E->kind()) {
  case ExprKind::IntLit:
    return E->intValue();
  case ExprKind::Unary: {
    if (E->unOp() != UnOp::Neg)
      return std::nullopt;
    auto V = numericValue(E->lhs());
    int64_t Out = 0;
    if (!V || __builtin_sub_overflow(int64_t(0), *V, &Out))
      return std::nullopt;
    return Out;
  }
  case ExprKind::Binary: {
    auto L = numericValue(E->lhs()), R = numericValue(E->rhs());
    if (!L || !R)
      return std::nullopt;
    int64_t Out = 0;
    bool Overflow = false;
    switch (E->binOp()) {
    case BinOp::Add:
      Overflow = __builtin_add_overflow(*L, *R, &Out);
      break;
    case BinOp::Sub:
      Overflow = __builtin_sub_overflow(*L, *R, &Out);
      break;
    case BinOp::Mul:
      Overflow = __builtin_mul_overflow(*L, *R, &Out);
      break;
    default:
      return std::nullopt;
    }
    if (Overflow)
      return std::nullopt;
    return Out;
  }
  default:
    return std::nullopt;
  }
}

/// Extracts \p E as an affine form over \p IndexVars; loop-invariant
/// subtrees are lowered at state \p S0.
std::optional<AffineForm> extractAffine(const ExprPtr &E,
                                        const std::set<Symbol> &IndexVars,
                                        Lowering &Low, TermId S0) {
  TermArena &A = Low.arena();
  if (!containsIndexVar(E, IndexVars)) {
    AffineForm F;
    F.Rest = Low.lowerExprInt(S0, E);
    if (!Low.drainPendingDefs().empty())
      return std::nullopt; // Boolean-valued bound: not affine.
    return F;
  }
  switch (E->kind()) {
  case ExprKind::MetaVar: {
    AffineForm F;
    F.IdxCoeffs[E->name()] = Rational(1);
    F.Rest = A.mkInt(0);
    return F;
  }
  case ExprKind::Binary: {
    BinOp Op = E->binOp();
    if (Op == BinOp::Add || Op == BinOp::Sub) {
      auto L = extractAffine(E->lhs(), IndexVars, Low, S0);
      auto R = extractAffine(E->rhs(), IndexVars, Low, S0);
      if (!L || !R)
        return std::nullopt;
      AffineForm F = *L;
      for (const auto &[V, C] : R->IdxCoeffs) {
        Rational &Slot = F.IdxCoeffs[V];
        Slot = Op == BinOp::Add ? Slot + C : Slot - C;
        if (Slot.isZero())
          F.IdxCoeffs.erase(V);
      }
      F.Rest = Op == BinOp::Add ? A.mkAdd(F.Rest, R->Rest)
                                : A.mkSub(F.Rest, R->Rest);
      return F;
    }
    if (Op == BinOp::Mul) {
      // One side must be numeric.
      std::optional<int64_t> K = numericValue(E->lhs());
      ExprPtr Other = E->rhs();
      if (!K) {
        K = numericValue(E->rhs());
        Other = E->lhs();
      }
      if (!K)
        return std::nullopt;
      auto Inner = extractAffine(Other, IndexVars, Low, S0);
      if (!Inner)
        return std::nullopt;
      AffineForm F;
      for (const auto &[V, C] : Inner->IdxCoeffs)
        if (!(C * Rational(*K)).isZero())
          F.IdxCoeffs[V] = C * Rational(*K);
      F.Rest = A.mkMul(A.mkInt(*K), Inner->Rest);
      return F;
    }
    return std::nullopt;
  }
  case ExprKind::Unary:
    if (E->unOp() == UnOp::Neg) {
      auto Inner = extractAffine(E->lhs(), IndexVars, Low, S0);
      if (!Inner)
        return std::nullopt;
      AffineForm F;
      for (const auto &[V, C] : Inner->IdxCoeffs)
        F.IdxCoeffs[V] = -C;
      F.Rest = A.mkNeg(Inner->Rest);
      return F;
    }
    return std::nullopt;
  default:
    return std::nullopt;
  }
}

/// Builds the term of \p F under the index assignment \p IdxVals.
/// Fails (InvalidTerm) on non-integral coefficients.
TermId affineToTerm(const AffineForm &F,
                    const std::map<Symbol, TermId> &IdxVals, TermArena &A) {
  TermId Out = F.Rest;
  for (const auto &[V, C] : F.IdxCoeffs) {
    if (!C.isInteger())
      return InvalidTerm;
    auto It = IdxVals.find(V);
    if (It == IdxVals.end())
      return InvalidTerm;
    Out = A.mkAdd(Out, A.mkMul(A.mkInt(C.num()), It->second));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Commute evidence scanning
//===----------------------------------------------------------------------===//

/// All commute facts in the side condition, with their quantified binders.
std::vector<CommuteEvidence> scanCommutes(const SideCondPtr &C) {
  std::vector<CommuteEvidence> Out;
  std::function<void(const SideCondPtr &, std::vector<Symbol>)> Walk =
      [&](const SideCondPtr &Cond, std::vector<Symbol> Bound) {
        switch (Cond->kind()) {
        case SideCondKind::Atom:
          if (Cond->factName() == Symbol::get("Commute") &&
              Cond->args().size() == 2 && Cond->args()[0].isStmt() &&
              Cond->args()[1].isStmt())
            Out.push_back(CommuteEvidence{Bound, Cond->args()[0].S,
                                          Cond->args()[1].S,
                                          Cond->atLabel()});
          return;
        case SideCondKind::Forall: {
          for (Symbol B : Cond->boundVars())
            Bound.push_back(B);
          Walk(Cond->children()[0], Bound);
          return;
        }
        case SideCondKind::And:
          for (const SideCondPtr &Child : Cond->children())
            Walk(Child, Bound);
          return;
        default:
          return;
        }
      };
  Walk(C, {});
  return Out;
}

/// True if the hole arguments of \p S are bare, pairwise distinct variable
/// meta-variables.
bool holesAreGeneric(const StmtPtr &S, std::set<Symbol> &VarsOut) {
  for (const ExprPtr &H : S->holeArgs()) {
    if (H->kind() != ExprKind::MetaVar)
      return false;
    if (!VarsOut.insert(H->name()).second)
      return false;
  }
  return true;
}

/// Looks for quantified evidence that all instance pairs of \p NameA and
/// \p NameB commute: `Commute(NameA[K...], NameB[L...])` (either order)
/// where all hole arguments are generic variables.
bool haveAllPairsCommute(const std::vector<CommuteEvidence> &Evidence,
                         Symbol NameA, Symbol NameB) {
  for (const CommuteEvidence &Ev : Evidence) {
    Symbol A = Ev.A->metaName(), B = Ev.B->metaName();
    if (!((A == NameA && B == NameB) || (A == NameB && B == NameA)))
      continue;
    std::set<Symbol> Vars;
    if (!holesAreGeneric(Ev.A, Vars) || !holesAreGeneric(Ev.B, Vars))
      continue;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// The permute proof for perfect nests
//===----------------------------------------------------------------------===//

class PermuteProver {
public:
  PermuteProver(const Rule &R, Atp &Prover)
      : R(R), Prover(Prover), A(Prover.arena()), Low(A, Env) {
    Env.Kinds.collectFrom(R.Before);
    Env.Kinds.collectFrom(R.After);
    S0 = A.mkSymConst(Symbol::get("s$perm0"), Sort::State);
    Evidence = scanCommutes(R.Cond);
  }

  PermuteOutcome run() {
    PermuteOutcome Out;
    // Every prover query below establishes a Permute Theorem condition.
    telemetry::PurposeScope Tag(telemetry::Purpose::PermuteCondition);
    StmtPtr Before = normalizeStmt(R.Before);
    StmtPtr After = normalizeStmt(R.After);

    // Shape (a): perfect nest on both sides.
    std::optional<LoopNest> N1, N2;
    {
      trace::Span CanonSpan("permute.canonicalize");
      N1 = extractNest(Before);
      N2 = extractNest(After);
    }
    if (N1 && N2) {
      Out.Attempted = true;
      proveNestPair(*N1, *N2, Out);
      return Out;
    }

    // Shape (b): fission/fusion between Seq[loop, loop] and loop{S1;S2}.
    if (auto Pair = splitShape(Before)) {
      if (auto Fused = fusedShape(After)) {
        Out.Attempted = true;
        proveFusion(Pair->first, Pair->second, *Fused, Out);
        return Out;
      }
    }
    if (auto Fused = fusedShape(Before)) {
      if (auto Pair = splitShape(After)) {
        Out.Attempted = true;
        // Distribution: same proof with the roles swapped.
        proveFusion(Pair->first, Pair->second, *Fused, Out);
        return Out;
      }
    }
    return Out;
  }

private:
  FormulaPtr inDomain(const std::vector<NestLevel> &Levels,
                      const std::set<Symbol> &IdxVars,
                      const std::map<Symbol, TermId> &IdxVals) {
    std::vector<FormulaPtr> Conds;
    for (const NestLevel &L : Levels) {
      auto LoA = extractAffine(L.Lo, IdxVars, Low, S0);
      auto HiA = extractAffine(L.Hi, IdxVars, Low, S0);
      if (!LoA || !HiA)
        return nullptr;
      TermId Lo = affineToTerm(*LoA, IdxVals, A);
      TermId Hi = affineToTerm(*HiA, IdxVals, A);
      TermId I = IdxVals.at(L.IndexVar);
      if (Lo == InvalidTerm || Hi == InvalidTerm)
        return nullptr;
      Conds.push_back(Formula::mkLe(A, Lo, I));
      Conds.push_back(Formula::mkLe(A, I, Hi));
    }
    return Formula::mkAnd(std::move(Conds));
  }

  /// Lexicographic "executes before": position \p X before position \p Y,
  /// where both are tuples of terms in the level order of \p Levels.
  FormulaPtr lexBefore(const std::vector<NestLevel> &Levels,
                       const std::vector<TermId> &X,
                       const std::vector<TermId> &Y) {
    std::vector<FormulaPtr> Disjuncts;
    for (size_t K = 0; K < Levels.size(); ++K) {
      std::vector<FormulaPtr> Conjuncts;
      for (size_t M = 0; M < K; ++M)
        Conjuncts.push_back(Formula::mkEq(A, X[M], Y[M]));
      Conjuncts.push_back(Levels[K].Descending
                              ? Formula::mkLt(A, Y[K], X[K])
                              : Formula::mkLt(A, X[K], Y[K]));
      Disjuncts.push_back(Formula::mkAnd(std::move(Conjuncts)));
    }
    return Formula::mkOr(std::move(Disjuncts));
  }

  std::vector<TermId> freshIndexTuple(const char *Prefix, size_t N) {
    std::vector<TermId> Out;
    for (size_t K = 0; K < N; ++K)
      Out.push_back(A.mkSymConst(
          Symbol::get(std::string(Prefix) + std::to_string(K) + "$" +
                      std::to_string(FreshCounter)),
          Sort::Int));
    return Out;
  }

  void proveNestPair(const LoopNest &N1, const LoopNest &N2,
                     PermuteOutcome &Out) {
    ++FreshCounter;
    size_t Depth = N1.Levels.size();
    if (N2.Levels.size() != Depth) {
      Out.Note = "nests have different depths";
      return;
    }
    if (N1.Body->metaName() != N2.Body->metaName() ||
        N1.Body->holeArgs().size() != N2.Body->holeArgs().size()) {
      Out.Note = "loop bodies do not match";
      return;
    }
    size_t Holes = N1.Body->holeArgs().size();
    if (Holes != Depth) {
      Out.Note = "body holes must cover the index variables";
      return;
    }
    // The original body must be S[i1, ..., in] in level order.
    for (size_t K = 0; K < Depth; ++K) {
      const ExprPtr &H = N1.Body->holeArgs()[K];
      if (H->kind() != ExprKind::MetaVar ||
          H->name() != N1.Levels[K].IndexVar) {
        Out.Note = "original body holes must be the index variables";
        return;
      }
    }

    std::set<Symbol> Idx1 = N1.indexVars();
    std::set<Symbol> Idx2 = N2.indexVars();

    // F: transformed iteration j |-> original instance, read off the
    // transformed hole arguments. The conditions below are proved about F
    // and the bound forms, not about the rule text, so a coefficient that
    // overflowed (Rational.h) must stop the proof: the flag is cleared
    // here and checked before the first query.
    trace::Span InferSpan("permute.inferMapping");
    Rational::clearOverflow();
    std::vector<AffineForm> F;
    for (const ExprPtr &H : N2.Body->holeArgs()) {
      auto Form = extractAffine(H, Idx2, Low, S0);
      if (!Form) {
        Out.Note = "transformed body holes are not affine";
        return;
      }
      F.push_back(std::move(*Form));
    }

    // Invert F by rational Gaussian elimination: solve
    //   i_k = sum_l M[k][l] * j_l + r_k   for j.
    std::vector<Symbol> J;
    for (const NestLevel &L : N2.Levels)
      J.push_back(L.IndexVar);
    std::vector<std::vector<Rational>> M(Depth,
                                         std::vector<Rational>(Depth));
    for (size_t K = 0; K < Depth; ++K)
      for (size_t L = 0; L < Depth; ++L) {
        auto It = F[K].IdxCoeffs.find(J[L]);
        M[K][L] = It == F[K].IdxCoeffs.end() ? Rational(0) : It->second;
      }
    // Augment with the identity and eliminate.
    std::vector<std::vector<Rational>> Inv(Depth,
                                           std::vector<Rational>(Depth));
    for (size_t K = 0; K < Depth; ++K)
      Inv[K][K] = Rational(1);
    for (size_t Col = 0; Col < Depth; ++Col) {
      size_t Pivot = Col;
      while (Pivot < Depth && M[Pivot][Col].isZero())
        ++Pivot;
      if (Pivot == Depth) {
        Out.Note = "index mapping is singular";
        return;
      }
      std::swap(M[Pivot], M[Col]);
      std::swap(Inv[Pivot], Inv[Col]);
      Rational P = M[Col][Col];
      for (size_t L = 0; L < Depth; ++L) {
        M[Col][L] = M[Col][L] / P;
        Inv[Col][L] = Inv[Col][L] / P;
      }
      for (size_t Row = 0; Row < Depth; ++Row) {
        if (Row == Col || M[Row][Col].isZero())
          continue;
        Rational Factor = M[Row][Col];
        for (size_t L = 0; L < Depth; ++L) {
          M[Row][L] = M[Row][L] - Factor * M[Col][L];
          Inv[Row][L] = Inv[Row][L] - Factor * Inv[Col][L];
        }
      }
    }
    for (size_t K = 0; K < Depth; ++K)
      for (size_t L = 0; L < Depth; ++L)
        if (!Inv[K][L].isInteger()) {
          Out.Note = "inverse index mapping is not integral";
          return;
        }

    // As term-level functions.
    auto ApplyF = [&](const std::vector<TermId> &JVals) {
      std::map<Symbol, TermId> Map;
      for (size_t L = 0; L < Depth; ++L)
        Map[J[L]] = JVals[L];
      std::vector<TermId> Out2;
      for (size_t K = 0; K < Depth; ++K)
        Out2.push_back(affineToTerm(F[K], Map, A));
      return Out2;
    };
    auto ApplyFInv = [&](const std::vector<TermId> &IVals) {
      // j_l = sum_k Inv[l][k] * (i_k - r_k).
      std::vector<TermId> Out2;
      for (size_t L = 0; L < Depth; ++L) {
        TermId Acc = A.mkInt(0);
        for (size_t K = 0; K < Depth; ++K) {
          if (Inv[L][K].isZero())
            continue;
          TermId Diff = A.mkSub(IVals[K], F[K].Rest);
          Acc = A.mkAdd(Acc, A.mkMul(A.mkInt(Inv[L][K].num()), Diff));
        }
        Out2.push_back(Acc);
      }
      return Out2;
    };

    InferSpan.end();

    // Skolem index tuples.
    std::vector<TermId> IVals = freshIndexTuple("i$", Depth);
    std::vector<TermId> JVals = freshIndexTuple("j$", Depth);
    std::map<Symbol, TermId> IMap, JMap;
    for (size_t K = 0; K < Depth; ++K) {
      IMap[N1.Levels[K].IndexVar] = IVals[K];
      JMap[N2.Levels[K].IndexVar] = JVals[K];
    }
    FormulaPtr InD1 = inDomain(N1.Levels, Idx1, IMap);
    FormulaPtr InD2 = inDomain(N2.Levels, Idx2, JMap);
    if (!InD1 || !InD2) {
      Out.Note = "loop bounds are not affine";
      return;
    }
    // Later bound forms repeat the extractions of InD1 and InD2.
    if (Rational::overflowed()) {
      Out.Note = "index arithmetic overflows 64 bits";
      return;
    }

    // Condition 1: j in D2 => F(j) in D1.
    {
      trace::Span CondSpan("permute.condition1.FMapsD2IntoD1");
      std::vector<TermId> FJ = ApplyF(JVals);
      std::map<Symbol, TermId> FMap;
      for (size_t K = 0; K < Depth; ++K)
        FMap[N1.Levels[K].IndexVar] = FJ[K];
      FormulaPtr FInD1 = inDomain(N1.Levels, Idx1, FMap);
      if (!Prover.query(AtpQuery::validity(Formula::mkImplies(InD2, FInD1)))
               .Verdict) {
        Out.Note = "condition 1 (F maps D2 into D1) failed";
        return;
      }
    }
    // Condition 2: i in D1 => F^-1(i) in D2.
    {
      trace::Span CondSpan("permute.condition2.FInvMapsD1IntoD2");
      std::vector<TermId> FInvI = ApplyFInv(IVals);
      std::map<Symbol, TermId> GMap;
      for (size_t K = 0; K < Depth; ++K)
        GMap[N2.Levels[K].IndexVar] = FInvI[K];
      FormulaPtr GInD2 = inDomain(N2.Levels, Idx2, GMap);
      if (!Prover.query(AtpQuery::validity(Formula::mkImplies(InD1, GInD2)))
               .Verdict) {
        Out.Note = "condition 2 (F^-1 maps D1 into D2) failed";
        return;
      }
    }
    // Conditions 3 and 4: round trips are identities.
    {
      trace::Span CondSpan("permute.condition3.roundTripJ");
      std::vector<TermId> Round = ApplyFInv(ApplyF(JVals));
      std::vector<FormulaPtr> Eqs;
      for (size_t K = 0; K < Depth; ++K)
        Eqs.push_back(Formula::mkEq(A, Round[K], JVals[K]));
      if (!Prover.query(AtpQuery::validity(Formula::mkAnd(std::move(Eqs))))
               .Verdict) {
        Out.Note = "condition 3 (F^-1 after F) failed";
        return;
      }
    }
    {
      trace::Span CondSpan("permute.condition4.roundTripI");
      std::vector<TermId> Round2 = ApplyF(ApplyFInv(IVals));
      std::vector<FormulaPtr> Eqs2;
      for (size_t K = 0; K < Depth; ++K)
        Eqs2.push_back(Formula::mkEq(A, Round2[K], IVals[K]));
      if (!Prover.query(AtpQuery::validity(Formula::mkAnd(std::move(Eqs2))))
               .Verdict) {
        Out.Note = "condition 4 (F after F^-1) failed";
        return;
      }
    }
    // Condition 5: reordered pairs must commute.
    {
      trace::Span CondSpan("permute.condition5.reorderedPairsCommute");
      std::vector<TermId> IVals2 = freshIndexTuple("ip$", Depth);
      std::map<Symbol, TermId> IMap2;
      for (size_t K = 0; K < Depth; ++K)
        IMap2[N1.Levels[K].IndexVar] = IVals2[K];
      FormulaPtr InD1b = inDomain(N1.Levels, Idx1, IMap2);
      FormulaPtr Reordered = Formula::mkAnd(
          {InD1, InD1b, lexBefore(N1.Levels, IVals, IVals2),
           lexBefore(N2.Levels, ApplyFInv(IVals2), ApplyFInv(IVals))});
      if (Prover.query(AtpQuery::satisfiability(Reordered)).Verdict) {
        // Some pair is executed in the opposite order: need commutativity.
        if (!haveAllPairsCommute(Evidence, N1.Body->metaName(),
                                 N1.Body->metaName())) {
          Out.Note = "instances are reordered and no quantified Commute "
                     "side condition covers them";
          return;
        }
      }
    }

    finishReplacement(Out, Idx1, Idx2);
  }

  std::optional<std::pair<LoopNest, LoopNest>> splitShape(const StmtPtr &S) {
    if (S->kind() != StmtKind::Seq || S->stmts().size() != 2)
      return std::nullopt;
    auto N1 = extractNest(S->stmts()[0]);
    auto N2 = extractNest(S->stmts()[1]);
    if (!N1 || !N2 || N1->Levels.size() != 1 || N2->Levels.size() != 1)
      return std::nullopt;
    return std::make_pair(std::move(*N1), std::move(*N2));
  }

  /// `for i { S1[i]; S2[i]; }` — a fused pair.
  std::optional<std::pair<LoopNest, LoopNest>> fusedShape(const StmtPtr &S) {
    if (S->kind() != StmtKind::For)
      return std::nullopt;
    StmtPtr Body = normalizeStmt(S->body());
    if (Body->kind() != StmtKind::Seq || Body->stmts().size() != 2)
      return std::nullopt;
    const StmtPtr &B1 = Body->stmts()[0];
    const StmtPtr &B2 = Body->stmts()[1];
    if (B1->kind() != StmtKind::MetaStmt || B2->kind() != StmtKind::MetaStmt)
      return std::nullopt;
    auto MakeNest = [&](const StmtPtr &B) -> std::optional<LoopNest> {
      StmtPtr Single = Stmt::mkFor(S->indexVar(), S->indexIsMeta(), S->init(),
                                   S->cond(), S->stepDelta(), B);
      return extractNest(Single);
    };
    auto N1 = MakeNest(B1);
    auto N2 = MakeNest(B2);
    if (!N1 || !N2)
      return std::nullopt;
    return std::make_pair(std::move(*N1), std::move(*N2));
  }

  /// Fusion: Seq[loop S1, loop S2] vs fused loop {S1; S2} with identical
  /// ascending bounds and bare index holes.
  void proveFusion(const LoopNest &L1, const LoopNest &L2,
                   const std::pair<LoopNest, LoopNest> &Fused,
                   PermuteOutcome &Out) {
    ++FreshCounter;
    auto CheckLoop = [&](const LoopNest &N) {
      return N.Levels.size() == 1 && !N.Levels[0].Descending &&
             N.Body->holeArgs().size() == 1 &&
             N.Body->holeArgs()[0]->kind() == ExprKind::MetaVar &&
             N.Body->holeArgs()[0]->name() == N.Levels[0].IndexVar;
    };
    if (!CheckLoop(L1) || !CheckLoop(L2) || !CheckLoop(Fused.first) ||
        !CheckLoop(Fused.second)) {
      Out.Note = "fusion loops must be simple ascending loops over their "
                 "index variable";
      return;
    }
    if (L1.Body->metaName() != Fused.first.Body->metaName() ||
        L2.Body->metaName() != Fused.second.Body->metaName()) {
      Out.Note = "fusion loop bodies do not match";
      return;
    }
    // Bounds must agree pairwise (checked semantically via the ATP).
    auto BoundsEq = [&](const ExprPtr &X, const ExprPtr &Y) {
      TermId TX = Low.lowerExprInt(S0, X);
      TermId TY = Low.lowerExprInt(S0, Y);
      Low.drainPendingDefs();
      return Prover.query(AtpQuery::validity(Formula::mkEq(A, TX, TY)))
          .Verdict;
    };
    if (!BoundsEq(L1.Levels[0].Lo, L2.Levels[0].Lo) ||
        !BoundsEq(L1.Levels[0].Hi, L2.Levels[0].Hi) ||
        !BoundsEq(L1.Levels[0].Lo, Fused.first.Levels[0].Lo) ||
        !BoundsEq(L1.Levels[0].Hi, Fused.first.Levels[0].Hi)) {
      Out.Note = "fusion loop bounds differ";
      return;
    }
    // Reordered pairs are S2(i') before S1(i) for i' < i: cross commute.
    if (!haveAllPairsCommute(Evidence, L1.Body->metaName(),
                             L2.Body->metaName())) {
      Out.Note = "fusion requires a quantified Commute(S1[.], S2[.]) side "
                 "condition";
      return;
    }
    std::set<Symbol> Dead = {L1.Levels[0].IndexVar, L2.Levels[0].IndexVar,
                             Fused.first.Levels[0].IndexVar};
    finishReplacement(Out, Dead, Dead);
  }

  void finishReplacement(PermuteOutcome &Out, const std::set<Symbol> &Idx1,
                         const std::set<Symbol> &Idx2) {
    Symbol Fresh = Symbol::get("Sperm$" + std::to_string(FreshCounter));
    MetaStmtInfo Info;
    for (Symbol V : Idx1) {
      Info.MaskedVars.insert(V);
      Info.PreservedVars.insert(V);
      Out.RequiredDeadVars.insert(V);
    }
    for (Symbol V : Idx2) {
      Info.MaskedVars.insert(V);
      Info.PreservedVars.insert(V);
      Out.RequiredDeadVars.insert(V);
    }
    Out.ExtraStmtInfo[Fresh] = std::move(Info);
    Out.NewBefore = Stmt::mkMetaStmt(Fresh);
    Out.NewAfter = Stmt::mkMetaStmt(Fresh);
    Out.Proved = true;
    Out.Note = "loops proven equivalent by the Permute Theorem";
  }

  const Rule &R;
  Atp &Prover;
  TermArena &A;
  LoweringEnv Env;
  Lowering Low;
  TermId S0 = InvalidTerm;
  std::vector<CommuteEvidence> Evidence;
  uint64_t FreshCounter = 0;
};

} // namespace

PermuteOutcome pec::runPermute(const Rule &R, Atp &Prover) {
  PermuteProver P(R, Prover);
  return P.run();
}
