//===- Term.cpp - Hash-consed terms -----------------------------------------===//

#include "solver/Term.h"

#include <cassert>
#include <sstream>
#include <utility>

using namespace pec;

TermId TermArena::intern(TermNode N) {
  // Key: op|sort|intval|name|args. Cheap and collision-free.
  std::string Key;
  Key.reserve(16 + 8 * N.Args.size());
  Key += std::to_string(static_cast<int>(N.Op));
  Key += '|';
  Key += std::to_string(static_cast<int>(N.TheSort));
  Key += '|';
  Key += std::to_string(N.IntVal);
  Key += '|';
  Key += std::to_string(N.Name.id());
  for (TermId A : N.Args) {
    Key += ',';
    Key += std::to_string(A);
  }
  auto It = Interned.find(Key);
  if (It != Interned.end())
    return It->second;
  TermId Id = static_cast<TermId>(Nodes.size());
  Nodes.push_back(std::move(N));
  Interned.emplace(std::move(Key), Id);
  return Id;
}

TermId TermArena::mkInt(int64_t V) {
  return intern(TermNode{TermOp::IntConst, Sort::Int, V, Symbol(), {}});
}

TermId TermArena::mkSymConst(Symbol Name, Sort S) {
  return intern(TermNode{TermOp::SymConst, S, 0, Name, {}});
}

TermId TermArena::mkNameLit(Symbol VarName) {
  return intern(TermNode{TermOp::NameLit, Sort::VarName, 0, VarName, {}});
}

TermId TermArena::mkAdd(TermId L, TermId R) {
  assert(sortOf(L) == Sort::Int && sortOf(R) == Sort::Int);
  const TermNode &LN = node(L), &RN = node(R);
  if (LN.Op == TermOp::IntConst && RN.Op == TermOp::IntConst)
    return mkInt(LN.IntVal + RN.IntVal);
  if (LN.Op == TermOp::IntConst && LN.IntVal == 0)
    return R;
  if (RN.Op == TermOp::IntConst && RN.IntVal == 0)
    return L;
  return intern(TermNode{TermOp::Add, Sort::Int, 0, Symbol(), {L, R}});
}

TermId TermArena::mkSub(TermId L, TermId R) {
  assert(sortOf(L) == Sort::Int && sortOf(R) == Sort::Int);
  const TermNode &LN = node(L), &RN = node(R);
  if (LN.Op == TermOp::IntConst && RN.Op == TermOp::IntConst)
    return mkInt(LN.IntVal - RN.IntVal);
  if (RN.Op == TermOp::IntConst && RN.IntVal == 0)
    return L;
  if (L == R)
    return mkInt(0);
  return intern(TermNode{TermOp::Sub, Sort::Int, 0, Symbol(), {L, R}});
}

TermId TermArena::mkMul(TermId L, TermId R) {
  assert(sortOf(L) == Sort::Int && sortOf(R) == Sort::Int);
  const TermNode &LN = node(L), &RN = node(R);
  if (LN.Op == TermOp::IntConst && RN.Op == TermOp::IntConst)
    return mkInt(LN.IntVal * RN.IntVal);
  if (LN.Op == TermOp::IntConst) {
    if (LN.IntVal == 0)
      return mkInt(0);
    if (LN.IntVal == 1)
      return R;
  }
  if (RN.Op == TermOp::IntConst) {
    if (RN.IntVal == 0)
      return mkInt(0);
    if (RN.IntVal == 1)
      return L;
  }
  // A nonlinear product is opaque to the LIA core; ordering its operands
  // makes x * y and y * x one term, so commutativity holds by interning.
  if (LN.Op != TermOp::IntConst && RN.Op != TermOp::IntConst && R < L)
    std::swap(L, R);
  return intern(TermNode{TermOp::Mul, Sort::Int, 0, Symbol(), {L, R}});
}

TermId TermArena::mkNeg(TermId T) {
  assert(sortOf(T) == Sort::Int);
  const TermNode &N = node(T);
  if (N.Op == TermOp::IntConst)
    return mkInt(-N.IntVal);
  if (N.Op == TermOp::Neg)
    return N.Args[0];
  return intern(TermNode{TermOp::Neg, Sort::Int, 0, Symbol(), {T}});
}

TermId TermArena::mkSelS(TermId State, TermId Name, Sort ResultSort) {
  assert(sortOf(State) == Sort::State && sortOf(Name) == Sort::VarName);
  assert(ResultSort == Sort::Int || ResultSort == Sort::Array);
  // Variable names are always distinct literals, so select-over-store on
  // states resolves completely.
  const TermNode *SN = &node(State);
  while (SN->Op == TermOp::StoS) {
    if (SN->Args[1] == Name)
      return SN->Args[2];
    TermId Inner = SN->Args[0];
    SN = &node(Inner);
    State = Inner;
  }
  return intern(
      TermNode{TermOp::SelS, ResultSort, 0, Symbol(), {State, Name}});
}

TermId TermArena::mkStoS(TermId State, TermId Name, TermId Value) {
  assert(sortOf(State) == Sort::State && sortOf(Name) == Sort::VarName);
  // Identity store: writing back the cell's own value is a no-op. mkSelS
  // normalizes reads through store chains, so this also catches values read
  // from an older copy of the same cell.
  if (Value == mkSelS(State, Name, sortOf(Value)))
    return State;
  {
    const TermNode &SN = node(State);
    // Store-over-store on the same name shadows the inner store.
    if (SN.Op == TermOp::StoS && SN.Args[1] == Name)
      return mkStoS(SN.Args[0], Name, Value);
    // Stores to distinct names commute: keep chains sorted by name id so
    // equal state maps have equal canonical terms.
    if (SN.Op == TermOp::StoS && node(SN.Args[1]).Name.id() > node(Name).Name.id()) {
      TermId InnerName = SN.Args[1];
      TermId InnerValue = SN.Args[2];
      return mkStoS(mkStoS(SN.Args[0], Name, Value), InnerName, InnerValue);
    }
  }
  return intern(
      TermNode{TermOp::StoS, Sort::State, 0, Symbol(), {State, Name, Value}});
}

TermId TermArena::mkSelA(TermId Array, TermId Index) {
  assert(sortOf(Array) == Sort::Array && sortOf(Index) == Sort::Int);
  const TermNode &AN = node(Array);
  if (AN.Op == TermOp::StoA) {
    TermId StoredIndex = AN.Args[1];
    if (StoredIndex == Index)
      return AN.Args[2];
    const TermNode &I1 = node(StoredIndex), &I2 = node(Index);
    if (I1.Op == TermOp::IntConst && I2.Op == TermOp::IntConst &&
        I1.IntVal != I2.IntVal)
      return mkSelA(AN.Args[0], Index);
    // Symbolic: left for read-over-write lemma expansion in the ATP.
  }
  return intern(TermNode{TermOp::SelA, Sort::Int, 0, Symbol(), {Array, Index}});
}

TermId TermArena::mkStoA(TermId Array, TermId Index, TermId Value) {
  assert(sortOf(Array) == Sort::Array && sortOf(Index) == Sort::Int &&
         sortOf(Value) == Sort::Int);
  // Identity store (mkSelA resolves reads through constant-index chains).
  if (Value == mkSelA(Array, Index))
    return Array;
  {
    const TermNode &AN = node(Array);
    if (AN.Op == TermOp::StoA && AN.Args[1] == Index)
      return mkStoA(AN.Args[0], Index, Value);
    // Stores at distinct constant indices commute: sort by index value.
    if (AN.Op == TermOp::StoA) {
      const TermNode &I1 = node(AN.Args[1]);
      const TermNode &I2 = node(Index);
      if (I1.Op == TermOp::IntConst && I2.Op == TermOp::IntConst &&
          I1.IntVal > I2.IntVal) {
        TermId InnerIndex = AN.Args[1];
        TermId InnerValue = AN.Args[2];
        return mkStoA(mkStoA(AN.Args[0], Index, Value), InnerIndex,
                      InnerValue);
      }
    }
  }
  return intern(
      TermNode{TermOp::StoA, Sort::Array, 0, Symbol(), {Array, Index, Value}});
}

TermId TermArena::mkApply(Symbol Fn, std::vector<TermId> Args,
                          Sort ResultSort) {
  return intern(TermNode{TermOp::Apply, ResultSort, 0, Fn, std::move(Args)});
}

std::string TermArena::str(TermId T) const {
  const TermNode &N = node(T);
  std::ostringstream OS;
  auto PrintArgs = [&](const char *Head) {
    OS << Head << '(';
    for (size_t I = 0; I < N.Args.size(); ++I) {
      if (I)
        OS << ", ";
      OS << str(N.Args[I]);
    }
    OS << ')';
  };
  switch (N.Op) {
  case TermOp::IntConst: OS << N.IntVal; break;
  case TermOp::SymConst: OS << N.Name.str(); break;
  case TermOp::NameLit:  OS << '"' << N.Name.str() << '"'; break;
  case TermOp::Add: OS << '(' << str(N.Args[0]) << " + " << str(N.Args[1]) << ')'; break;
  case TermOp::Sub: OS << '(' << str(N.Args[0]) << " - " << str(N.Args[1]) << ')'; break;
  case TermOp::Mul: OS << '(' << str(N.Args[0]) << " * " << str(N.Args[1]) << ')'; break;
  case TermOp::Neg: OS << "-" << str(N.Args[0]); break;
  case TermOp::SelS: PrintArgs("selS"); break;
  case TermOp::StoS: PrintArgs("stoS"); break;
  case TermOp::SelA: PrintArgs("selA"); break;
  case TermOp::StoA: PrintArgs("stoA"); break;
  case TermOp::Apply: PrintArgs(std::string(N.Name.str()).c_str()); break;
  }
  return OS.str();
}
