//===- Euf.cpp - Congruence closure -------------------------------------------===//

#include "solver/Euf.h"

#include <cassert>
#include <map>
#include <set>
#include <tuple>

using namespace pec;

CongruenceClosure::CongruenceClosure(const TermArena &Arena,
                                     std::vector<char> RelevantMask)
    : Arena(Arena), Relevant(std::move(RelevantMask)) {
  Parent.resize(Arena.size());
  ClassSize.assign(Arena.size(), 1);
  for (TermId T = 0; T < Parent.size(); ++T)
    Parent[T] = T;
}

bool CongruenceClosure::isRelevant(TermId T) const {
  return Relevant.empty() || (T < Relevant.size() && Relevant[T]);
}

void CongruenceClosure::growTables(TermId T) {
  // The arena may have grown since construction (e.g. lemma expansion).
  while (Parent.size() <= T) {
    Parent.push_back(static_cast<TermId>(Parent.size()));
    ClassSize.push_back(1);
  }
}

TermId CongruenceClosure::findRoot(TermId T) {
  growTables(T);
  // No path compression: every Parent write would need an undo record, and
  // union-by-size keeps chains logarithmic without one.
  while (Parent[T] != T)
    T = Parent[T];
  return T;
}

TermId CongruenceClosure::find(TermId T) { return findRoot(T); }

void CongruenceClosure::addEquality(TermId A, TermId B) {
  if (!merge(A, B))
    Conflicted = true;
  Dirty = true;
}

std::vector<uint32_t> *CongruenceClosure::diseqsOf(TermId R) {
  if (DiseqsByRoot.empty())
    return nullptr;
  auto It = DiseqsByRoot.find(R);
  return It == DiseqsByRoot.end() ? nullptr : &It->second;
}

void CongruenceClosure::addDisequality(TermId A, TermId B) {
  auto Index = static_cast<uint32_t>(Diseqs.size());
  Diseqs.emplace_back(A, B);
  DiseqsByRoot[findRoot(A)].push_back(Index);
  DiseqsByRoot[findRoot(B)].push_back(Index);
  UndoTrail.push_back(Undo{InvalidTerm, InvalidTerm, 0});
  Dirty = true;
}

void CongruenceClosure::pushState() {
  Frames.push_back(
      Frame{UndoTrail.size(), Conflicted, Dirty, ClosedArenaSize, RelevantRev});
}

void CongruenceClosure::popState() {
  assert(!Frames.empty() && "popState without matching pushState");
  const Frame F = Frames.back();
  Frames.pop_back();
  // Newest first: every record sees the partition and the lists exactly
  // as it left them.
  while (UndoTrail.size() > F.TrailSize) {
    const Undo &U = UndoTrail.back();
    if (U.Child == InvalidTerm) {
      auto [A, B] = Diseqs.back();
      DiseqsByRoot[findRoot(A)].pop_back();
      DiseqsByRoot[findRoot(B)].pop_back();
      Diseqs.pop_back();
    } else {
      Parent[U.Child] = U.Child;
      ClassSize[U.Root] -= ClassSize[U.Child];
      if (std::vector<uint32_t> *L = diseqsOf(U.Root))
        L->resize(U.RootDiseqs);
    }
    UndoTrail.pop_back();
  }
  Conflicted = F.Conflicted;
  // The partition is exactly what it was at push time — unless the
  // relevance mask widened meanwhile, in which case the fixpoint must
  // rerun over the newly relevant terms.
  if (F.RelevantRev == RelevantRev) {
    Dirty = F.Dirty;
    ClosedArenaSize = F.ClosedArenaSize;
  } else {
    Dirty = true;
  }
}

void CongruenceClosure::addRelevant(const std::vector<char> &Mask) {
  if (Relevant.size() < Mask.size())
    Relevant.resize(Mask.size(), 0);
  bool Widened = false;
  for (size_t I = 0; I < Mask.size(); ++I)
    if (Mask[I] && !Relevant[I]) {
      Relevant[I] = 1;
      Widened = true;
    }
  if (Widened) {
    ++RelevantRev;
    Dirty = true;
  }
}

bool CongruenceClosure::merge(TermId A, TermId B) {
  TermId Ra = findRoot(A), Rb = findRoot(B);
  if (Ra == Rb)
    return true;
  const TermNode &Na = Arena.node(Ra), &Nb = Arena.node(Rb);
  // Prefer constants as representatives so conflicts surface on constants.
  bool AConst = Na.Op == TermOp::IntConst || Na.Op == TermOp::NameLit;
  bool BConst = Nb.Op == TermOp::IntConst || Nb.Op == TermOp::NameLit;
  if (AConst && BConst)
    return false; // Distinct constants: mkInt/mkNameLit hash-cons equal ones.
  TermId Root, Child;
  if (AConst) {
    Root = Ra;
    Child = Rb;
  } else if (BConst) {
    Root = Rb;
    Child = Ra;
  } else if (ClassSize[Ra] >= ClassSize[Rb]) {
    Root = Ra;
    Child = Rb;
  } else {
    Root = Rb;
    Child = Ra;
  }
  Parent[Child] = Root;
  ClassSize[Root] += ClassSize[Child];
  // The root inherits the child's disequalities; undoing the union
  // truncates the root's list back to RootDiseqs.
  std::vector<uint32_t> *RootList = diseqsOf(Root);
  uint32_t RootDiseqs = RootList ? static_cast<uint32_t>(RootList->size()) : 0;
  if (std::vector<uint32_t> *ChildList = diseqsOf(Child);
      ChildList && !ChildList->empty()) {
    if (!RootList)
      RootList = &DiseqsByRoot[Root];
    RootList->insert(RootList->end(), ChildList->begin(), ChildList->end());
  }
  UndoTrail.push_back(Undo{Child, Root, RootDiseqs});
  Dirty = true;
  return true;
}

bool CongruenceClosure::close() {
  if (Conflicted)
    return false;
  if (!Dirty && ClosedArenaSize == Arena.size())
    return true;
  while (Parent.size() < Arena.size()) {
    Parent.push_back(static_cast<TermId>(Parent.size()));
    ClassSize.push_back(1);
  }

  // Congruence plus store-theory propagation, iterated to a joint fixpoint.
  // The start state may already contain merges from earlier closes; the
  // rules below are monotone in the partition, so continuing from it
  // reaches the same least fixpoint a from-scratch run would.
  bool Changed = true;
  while (Changed) {
    Changed = false;

    // Congruence via signature keys.
    std::map<std::vector<uint32_t>, TermId> Signatures;
    for (TermId T = 0; T < Parent.size(); ++T) {
      if (!isRelevant(T))
        continue;
      const TermNode &N = Arena.node(T);
      if (N.Args.empty())
        continue;
      std::vector<uint32_t> Sig;
      Sig.reserve(N.Args.size() + 3);
      Sig.push_back(static_cast<uint32_t>(N.Op));
      Sig.push_back(N.Name.id());
      for (TermId A : N.Args)
        Sig.push_back(findRoot(A));
      auto [It, Inserted] = Signatures.emplace(std::move(Sig), T);
      if (!Inserted && findRoot(It->second) != findRoot(T)) {
        if (!merge(It->second, T)) {
          Conflicted = true;
          return false;
        }
        Changed = true;
      }
    }

    // Store theory. From a merged pair stoS(a,n,v) ~ stoS(b,n,w):
    //   * v ~ w (reading the written cell), and
    //   * a and b agree off n, so stoS(a,n,x) ~ stoS(b,n,y) whenever x ~ y,
    //     and selS(a,m) ~ selS(b,m) for any other name m.
    // The same rules apply to arrays (stoA/selA) keyed by congruent indices.
    struct StoreInfo {
      TermId Term;
      TermId Base, Key, Value;
    };
    std::vector<StoreInfo> Stores;
    std::vector<std::pair<TermId, TermId>> Selects; // (term, base) pairs.
    for (TermId T = 0; T < Parent.size(); ++T) {
      if (!isRelevant(T))
        continue;
      const TermNode &N = Arena.node(T);
      if (N.Op == TermOp::StoS || N.Op == TermOp::StoA)
        Stores.push_back(StoreInfo{T, N.Args[0], N.Args[1], N.Args[2]});
      else if (N.Op == TermOp::SelS || N.Op == TermOp::SelA)
        Selects.emplace_back(T, N.Args[0]);
    }
    // agreeOff[(aRep,bRep,keyRep)] derived from merged store pairs.
    std::set<std::tuple<TermId, TermId, TermId>> AgreeOff;
    for (size_t I = 0; I < Stores.size(); ++I) {
      for (size_t K = I + 1; K < Stores.size(); ++K) {
        const StoreInfo &P = Stores[I], &Q = Stores[K];
        if (Arena.node(P.Term).Op != Arena.node(Q.Term).Op)
          continue;
        if (findRoot(P.Key) != findRoot(Q.Key))
          continue;
        if (findRoot(P.Term) != findRoot(Q.Term))
          continue;
        // Equal stores at the same key: inject.
        if (findRoot(P.Value) != findRoot(Q.Value)) {
          if (!merge(P.Value, Q.Value)) {
            Conflicted = true;
            return false;
          }
          Changed = true;
        }
        TermId A = findRoot(P.Base), B = findRoot(Q.Base);
        if (A != B) {
          if (A > B)
            std::swap(A, B);
          AgreeOff.insert({A, B, findRoot(P.Key)});
        }
      }
    }
    auto AgreesOff = [&](TermId A, TermId B, TermId Key) {
      A = findRoot(A);
      B = findRoot(B);
      if (A > B)
        std::swap(A, B);
      return AgreeOff.count({A, B, findRoot(Key)}) != 0;
    };
    // Same-value stores over agree-off bases become equal.
    for (size_t I = 0; I < Stores.size(); ++I) {
      for (size_t K = I + 1; K < Stores.size(); ++K) {
        const StoreInfo &P = Stores[I], &Q = Stores[K];
        if (Arena.node(P.Term).Op != Arena.node(Q.Term).Op)
          continue;
        if (findRoot(P.Term) == findRoot(Q.Term))
          continue;
        if (findRoot(P.Key) != findRoot(Q.Key) ||
            findRoot(P.Value) != findRoot(Q.Value))
          continue;
        if (!AgreesOff(P.Base, Q.Base, P.Key))
          continue;
        if (!merge(P.Term, Q.Term)) {
          Conflicted = true;
          return false;
        }
        Changed = true;
      }
    }
    // Reads at a *different* name from agree-off state bases are equal
    // (names are distinct literals, so difference is decidable).
    for (size_t I = 0; I < Selects.size(); ++I) {
      for (size_t K = I + 1; K < Selects.size(); ++K) {
        TermId T1 = Selects[I].first, T2 = Selects[K].first;
        const TermNode &N1 = Arena.node(T1), &N2 = Arena.node(T2);
        if (N1.Op != TermOp::SelS || N2.Op != TermOp::SelS)
          continue;
        if (N1.TheSort != N2.TheSort)
          continue;
        if (findRoot(T1) == findRoot(T2))
          continue;
        if (findRoot(N1.Args[1]) != findRoot(N2.Args[1]))
          continue;
        // Find an agree-off witness whose key is a name literal different
        // from the read name.
        Symbol ReadName = Arena.node(N1.Args[1]).Name;
        bool Agree = false;
        for (const auto &[A, B, Key] : AgreeOff) {
          TermId Ra = findRoot(N1.Args[0]), Rb = findRoot(N2.Args[0]);
          if (!((Ra == A && Rb == B) || (Ra == B && Rb == A)))
            continue;
          const TermNode &KeyNode = Arena.node(Key);
          if (KeyNode.Op == TermOp::NameLit && KeyNode.Name != ReadName) {
            Agree = true;
            break;
          }
        }
        if (!Agree)
          continue;
        if (!merge(T1, T2)) {
          Conflicted = true;
          return false;
        }
        Changed = true;
      }
    }
  }

  for (auto &[A, B] : Diseqs)
    if (findRoot(A) == findRoot(B)) {
      Conflicted = true;
      return false;
    }

  Dirty = false;
  ClosedArenaSize = Arena.size();
  return true;
}

bool CongruenceClosure::mustDiffer(TermId A, TermId B) {
  TermId Ra = findRoot(A), Rb = findRoot(B);
  if (Ra == Rb)
    return false;
  const TermNode &Na = Arena.node(Ra), &Nb = Arena.node(Rb);
  bool AConst = Na.Op == TermOp::IntConst || Na.Op == TermOp::NameLit;
  bool BConst = Nb.Op == TermOp::IntConst || Nb.Op == TermOp::NameLit;
  if (AConst && BConst)
    return true; // Distinct roots of hash-consed constants differ.
  const std::vector<uint32_t> *La = diseqsOf(Ra), *Lb = diseqsOf(Rb);
  if (!La || !Lb)
    return false;
  // Every disequality separating the classes is on both lists.
  if (Lb->size() < La->size())
    std::swap(La, Lb);
  for (uint32_t I : *La) {
    TermId Rx = findRoot(Diseqs[I].first), Ry = findRoot(Diseqs[I].second);
    if ((Rx == Ra && Ry == Rb) || (Rx == Rb && Ry == Ra))
      return true;
  }
  return false;
}

void CongruenceClosure::forEachIntEquality(
    const std::function<void(TermId, TermId)> &Fn) {
  assert(!Dirty && !Conflicted && "call close() first");
  for (TermId T = 0; T < Parent.size(); ++T) {
    if (!isRelevant(T) || Arena.sortOf(T) != Sort::Int)
      continue;
    TermId R = findRoot(T);
    if (R != T && Arena.sortOf(R) == Sort::Int)
      Fn(T, R);
  }
}
