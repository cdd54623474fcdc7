//===- Theory.h - EUF + LIA theory combination ------------------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The combined EUF + LIA ground theory behind the ATP, exposed as a
/// *backtrackable* `TheorySolver` object the SAT core drives online:
/// literals are asserted as they enter the boolean trail, `push()`/`pop()`
/// bracket decision levels, `checkEuf()` is the partial check at every
/// propagation fixpoint (congruence closure only; no LIA), `propagate()`
/// reports literals the current theory state entails, and `checkFull()` is
/// the complete Nelson-Oppen gate at full assignments. `explain()` and
/// `conflictCore()` produce the (QuickXplain-minimized) literal sets behind
/// propagations and conflicts, materialized lazily only when conflict
/// analysis asks.
///
/// Reasoning pipeline per check:
///
///   1. equalities/disequalities feed congruence closure (all sorts);
///   2. arithmetic atoms are linearized over opaque Int terms and fed to
///      the LIA solver;
///   3. equalities derived by congruence between Int terms are exported to
///      LIA, and LIA-entailed equalities on near-congruent parents feed
///      back, iterating to a bounded fixpoint (Nelson-Oppen style).
///
/// All budgets degrade toward "consistent" — the one-sided-safe direction
/// for a validity checker.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SOLVER_THEORY_H
#define PEC_SOLVER_THEORY_H

#include "solver/Euf.h"
#include "solver/Formula.h"
#include "solver/Term.h"

#include <functional>
#include <vector>

namespace pec {

/// One asserted theory literal: an atom and its polarity.
struct TheoryLit {
  FormulaPtr Atom; ///< Eq / Le / Lt.
  bool Positive = true;
};

/// One concrete valuation in a theory model: an Int-sorted term (state
/// reads `selS(s, "x")`, symbolic constants, uninterpreted applications)
/// and its integer value under the satisfying assignment.
struct TheoryModelEntry {
  TermId Term = InvalidTerm;
  int64_t Value = 0;
};

/// A satisfying assignment extracted from a consistent literal set: the
/// asserted literals plus integer valuations of the interesting Int terms.
/// `Complete` is false when the LIA model could not be recovered (budget
/// exhaustion or non-integral residue) — the literals alone still describe
/// the branch the solver committed to.
struct TheoryModel {
  std::vector<TheoryLit> Literals;
  std::vector<TheoryModelEntry> Ints;
  bool Complete = false;

  bool empty() const { return Literals.empty() && Ints.empty(); }
};

/// Computes the subterm closure of the atoms in \p Lits as a bitmask over
/// \p Arena (indexed by TermId).
std::vector<char> relevantTerms(const TermArena &Arena,
                                const std::vector<TheoryLit> &Lits);

/// QuickXplain [Junker 2004]: a minimal subset of \p Lits that
/// \p Inconsistent still rejects, in O(k log n) oracle calls for a core of
/// k literals. Falls back to the full set when the oracle cannot reproduce
/// the inconsistency (bounded oracles may be weaker than the reasoning
/// that found it) — the safe direction, since callers negate the result as
/// a clause and the full set is known inconsistent.
std::vector<TheoryLit> minimalTheoryCore(
    const std::vector<TheoryLit> &Lits,
    const std::function<bool(const std::vector<TheoryLit> &)> &Inconsistent);

/// Incremental, backtrackable decision procedure for EUF + LIA.
///
/// Usage protocol (mirroring the SAT core's decision levels):
///   * addRelevant() before the first assertion of a query — relevance
///     bounds the fixpoint's search space and only ever widens;
///   * assertLit() for every theory atom entering the boolean trail;
///   * push()/pop() around decision levels; pop() restores the exact state
///     (trail, partition, conflict flag) of the matching push();
///   * checkEuf() after each batch of assertions (cheap, incremental),
///     checkFull() at full assignments (complete up to budgets);
///   * after a failed check, conflictCore() names the guilty literals;
///   * propagate()/impliedPolarity() report entailed literals, and
///     explain() reproduces a minimal reason set on demand.
///
/// A conflict latches until the state that caused it is popped.
class TheorySolver {
public:
  explicit TheorySolver(TermArena &Arena);

  /// ORs \p Mask (TermId-indexed) into the relevance mask. Call before the
  /// first assertLit(); widening later is allowed and re-arms the closure.
  void addRelevant(const std::vector<char> &Mask);

  /// Asserts a literal at the current level. Returns false when the
  /// assertion is immediately inconsistent (e.g. merging two distinct
  /// constants); the conflict latches either way.
  bool assertLit(const TheoryLit &L);

  void push();
  void pop();
  size_t numLevels() const { return Frames.size(); }

  /// The asserted literals, oldest first. Explanations and cores draw from
  /// this trail.
  const std::vector<TheoryLit> &trail() const { return Trail; }

  /// The partial check: congruence/store fixpoint + disequalities, with
  /// no LIA work. Sound at partial assignments (an EUF conflict is a real
  /// conflict); arithmetic waits for checkFull().
  bool checkEuf();

  /// Complete check: EUF plus LIA with Nelson-Oppen equality exchange.
  /// The full gate the SAT core runs before reporting "satisfiable".
  bool checkFull();

  bool inConflict() const { return Conflicted; }

  /// True once a check's arithmetic overflowed int64 (Rational.h) and the
  /// check answered "consistent" without knowing.
  bool overflowed() const { return Overflowed; }

  /// 1 when the current EUF state entails \p Atom, -1 when it entails its
  /// negation, 0 when undetermined. Only Eq atoms are decided online
  /// (LIA-side entailment is left to checkFull).
  int impliedPolarity(const FormulaPtr &Atom);

  /// Appends to \p Implied every candidate atom the current state decides,
  /// with its entailed polarity. Call after a successful checkEuf().
  void propagate(const std::vector<FormulaPtr> &Candidates,
                 std::vector<TheoryLit> &Implied);

  /// A minimal subset S of trail()[0..Prefix) with "S implies L"
  /// theory-valid — the lazy explanation for a literal propagate()
  /// reported when the trail had \p Prefix entries. Never contains L.
  std::vector<TheoryLit> explain(const TheoryLit &L, size_t Prefix);

  /// After a failed check: a subset of the trail that is jointly
  /// theory-inconsistent — QuickXplain-minimized when \p Minimize, the
  /// whole trail otherwise.
  std::vector<TheoryLit> conflictCore(bool Minimize);

  /// One-shot consistency of a literal conjunction on a scratch solver —
  /// the object-API replacement for the removed `theoryConsistent` free
  /// function.
  static bool consistent(TermArena &Arena, const std::vector<TheoryLit> &Lits,
                         const std::vector<char> &Relevant);

  /// One-shot model extraction from a consistent conjunction — replaces
  /// the removed `extractTheoryModel` free function. Returns false (and an
  /// empty model) when the literal set turns out inconsistent.
  static bool model(TermArena &Arena, const std::vector<TheoryLit> &Lits,
                    const std::vector<char> &Relevant, TheoryModel &Out);

private:
  struct Frame {
    size_t TrailSize;
    size_t PropEqSize;
    bool Conflicted;
  };

  TermArena &Arena;
  CongruenceClosure Cc;
  std::vector<TheoryLit> Trail;
  /// LIA-entailed equalities asserted back into the closure; truncated on
  /// pop together with the Cc state that absorbed them.
  std::vector<std::pair<TermId, TermId>> PropagatedEqs;
  std::vector<Frame> Frames;
  std::vector<char> Relevant;
  bool Conflicted = false;
  bool Overflowed = false;
};

} // namespace pec

#endif // PEC_SOLVER_THEORY_H
