//===- Euf.h - Congruence closure -------------------------------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Congruence closure over the ground terms of a `TermArena`. All function
/// symbols — including the arithmetic operators, whose linear structure the
/// LIA solver handles separately — participate in congruence, so equalities
/// propagate through `step`/`selS`/`+` applications alike.
///
/// Conflicts: merging two distinct integer constants, merging two distinct
/// variable-name literals, or violating an asserted disequality.
///
/// The closure is *backtrackable*: every union-find merge (asserted or
/// derived) and every asserted disequality is recorded on one chronological
/// undo trail, and `pushState()`/`popState()` bracket a group of assertions
/// whose effects can be retracted exactly. `close()` runs the
/// congruence/store fixpoint from the current merged state — the rules are
/// monotone in the partition, so continuing from it reaches the same least
/// closure a from-scratch run would — but each round rescans every relevant
/// term. Conflicts latch until the state that caused them is popped.
///
/// Each class root that touches an asserted disequality owns the list of
/// those disequalities' indices [Nieuwenhuis & Oliveras 2007]: `merge`
/// appends the child's list to the root's, so `mustDiffer` scans only the
/// shorter of two lists instead of every disequality. The lists exist only
/// for such classes, so a closure that never sees a disequality pays
/// nothing for them.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SOLVER_EUF_H
#define PEC_SOLVER_EUF_H

#include "solver/Term.h"

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pec {

class CongruenceClosure {
public:
  /// Considers every term currently in \p Arena, or only those marked in
  /// \p Relevant when non-empty (indexed by TermId). The mask can grow later
  /// via addRelevant(); relevance only bounds the fixpoint's search space,
  /// never the soundness of derived merges.
  explicit CongruenceClosure(const TermArena &Arena,
                             std::vector<char> Relevant = {});

  /// Merges eagerly (recording the merge on the undo trail). A conflict —
  /// two distinct constants — latches; close() reports it.
  void addEquality(TermId A, TermId B);
  void addDisequality(TermId A, TermId B);

  /// Runs the congruence/store fixpoint from the current state. Returns
  /// true iff the asserted literals are EUF-consistent. No-op when nothing
  /// changed since the last close().
  bool close();
  /// Old name, kept for the scratch add-then-check call pattern.
  bool check() { return close(); }

  /// Latched conflict flag (cleared by popping past the offending assert).
  bool inConflict() const { return Conflicted; }

  /// Opens a backtracking frame; popState() restores the partition, the
  /// disequality set with its per-class lists, and the conflict/closure
  /// flags to their state at the matching pushState().
  void pushState();
  void popState();
  size_t numStates() const { return Frames.size(); }

  /// ORs \p Mask into the relevance mask (a term once relevant stays so).
  void addRelevant(const std::vector<char> &Mask);

  /// Representative after close().
  TermId find(TermId T);
  bool areEqual(TermId A, TermId B) { return find(A) == find(B); }

  /// True when the current state entails A != B: their classes are pinned
  /// to distinct constants, or an asserted disequality separates them.
  /// Scans the shorter of the two classes' disequality lists.
  bool mustDiffer(TermId A, TermId B);

  /// Invokes \p Fn for every pair (A, B) of *distinct* terms that ended up
  /// congruent and are both of sort Int — the equalities exported to the
  /// LIA solver. One pair per (member, representative).
  void forEachIntEquality(
      const std::function<void(TermId, TermId)> &Fn);

private:
  bool isRelevant(TermId T) const;
  void growTables(TermId T);
  TermId findRoot(TermId T);
  /// Returns false on conflict.
  bool merge(TermId A, TermId B);

  struct Frame {
    size_t TrailSize;
    bool Conflicted;
    bool Dirty;
    size_t ClosedArenaSize;
    uint64_t RelevantRev;
  };
  /// One undo record per union or asserted disequality, oldest first.
  /// Undoing a union re-roots Child, shrinks Root, and truncates Root's
  /// disequality list to RootDiseqs. Undoing a disequality (Child ==
  /// InvalidTerm) pops the newest one from Diseqs and its index from the
  /// lists of its endpoints' roots.
  struct Undo {
    TermId Child;
    TermId Root;
    uint32_t RootDiseqs;
  };

  /// The disequality list of class root \p R; null when it has none.
  std::vector<uint32_t> *diseqsOf(TermId R);

  const TermArena &Arena;
  std::vector<char> Relevant;
  std::vector<TermId> Parent;
  std::vector<uint32_t> ClassSize;
  std::vector<std::pair<TermId, TermId>> Diseqs;
  /// Class root -> indices into Diseqs of the disequalities touching the
  /// class; entries exist only for classes that have had one.
  std::unordered_map<TermId, std::vector<uint32_t>> DiseqsByRoot;
  std::vector<Undo> UndoTrail;
  std::vector<Frame> Frames;
  bool Conflicted = false;
  bool Dirty = false;
  size_t ClosedArenaSize = 0;
  uint64_t RelevantRev = 0;
};

} // namespace pec

#endif // PEC_SOLVER_EUF_H
