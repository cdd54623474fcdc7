//===- bench_atp.cpp - ATP micro-benchmarks and ablations ------------------------===//
//
// Micro-costs of the Simplify-replacement prover (DESIGN.md design-choice
// ablations):
//
//   * EUF congruence chains of growing depth;
//   * LIA feasibility with growing variable counts;
//   * array read-over-write lemma expansion depth;
//   * conflict minimization ON vs OFF on a mixed EUF+LIA query whose
//     naive blocking clauses are much wider than the real core.
//
//===----------------------------------------------------------------------===//

#include "solver/Atp.h"

#include "BenchTelemetry.h"

#include <benchmark/benchmark.h>

using namespace pec;

namespace {

/// step-chain congruence: s1 = s2 |- step^n(s1) = step^n(s2).
void BM_EufChain(benchmark::State &State) {
  int64_t Depth = State.range(0);
  for (auto _ : State) {
    TermArena A;
    Atp Prover(A);
    TermId S1 = A.mkSymConst(Symbol::get("s1"), Sort::State);
    TermId S2 = A.mkSymConst(Symbol::get("s2"), Sort::State);
    TermId T1 = S1, T2 = S2;
    for (int64_t I = 0; I < Depth; ++I) {
      Symbol Fn = Symbol::get("step$" + std::to_string(I % 3));
      T1 = A.mkApply(Fn, {T1}, Sort::State);
      T2 = A.mkApply(Fn, {T2}, Sort::State);
    }
    bool Valid = Prover
                     .query(AtpQuery::validity(Formula::mkImplies(
                         Formula::mkEq(A, S1, S2), Formula::mkEq(A, T1, T2))))
                     .Verdict;
    benchmark::DoNotOptimize(Valid);
  }
}
BENCHMARK(BM_EufChain)->Arg(4)->Arg(16)->Arg(64);

/// x1 <= x2 <= ... <= xn and xn <= x1 - 1: unsat chain detection.
void BM_LiaChain(benchmark::State &State) {
  int64_t N = State.range(0);
  for (auto _ : State) {
    TermArena A;
    Atp Prover(A);
    std::vector<TermId> X;
    for (int64_t I = 0; I < N; ++I)
      X.push_back(
          A.mkSymConst(Symbol::get("x" + std::to_string(I)), Sort::Int));
    std::vector<FormulaPtr> Cs;
    for (int64_t I = 0; I + 1 < N; ++I)
      Cs.push_back(Formula::mkLe(A, X[I], X[I + 1]));
    Cs.push_back(
        Formula::mkLe(A, X[N - 1], A.mkSub(X[0], A.mkInt(1))));
    bool Sat =
        Prover.query(AtpQuery::satisfiability(Formula::mkAnd(std::move(Cs))))
            .Verdict;
    benchmark::DoNotOptimize(Sat);
  }
}
BENCHMARK(BM_LiaChain)->Arg(4)->Arg(16)->Arg(64);

/// Nested array stores with symbolic indices: lemma expansion + case
/// splits.
void BM_ArrayLemmas(benchmark::State &State) {
  int64_t Depth = State.range(0);
  for (auto _ : State) {
    TermArena A;
    Atp Prover(A);
    TermId Arr = A.mkSymConst(Symbol::get("a"), Sort::Array);
    TermId Stored = Arr;
    std::vector<TermId> Idx;
    for (int64_t I = 0; I < Depth; ++I) {
      Idx.push_back(
          A.mkSymConst(Symbol::get("i" + std::to_string(I)), Sort::Int));
      Stored = A.mkStoA(Stored, Idx.back(), A.mkInt(I));
    }
    // Reading the most recent index returns the most recent value.
    bool Valid = Prover
                     .query(AtpQuery::validity(Formula::mkEq(
                         A, A.mkSelA(Stored, Idx.back()), A.mkInt(Depth - 1))))
                     .Verdict;
    benchmark::DoNotOptimize(Valid);
  }
}
BENCHMARK(BM_ArrayLemmas)->Arg(2)->Arg(4)->Arg(6);

/// Mixed query with many irrelevant asserted literals: with minimization
/// the learned clause isolates the 3-literal core; without it the blocking
/// clauses carry every assigned atom.
void runMinimizationQuery(bool Minimize, benchmark::State &State) {
  AtpOptions Options;
  Options.MinimizeConflicts = Minimize;
  for (auto _ : State) {
    TermArena A;
    Atp Prover(A, Options);
    std::vector<FormulaPtr> Cs;
    TermId X = A.mkSymConst(Symbol::get("x"), Sort::Int);
    TermId Y = A.mkSymConst(Symbol::get("y"), Sort::Int);
    // Irrelevant chaff: z_i <= z_{i+1} or z_i = i (all satisfiable).
    for (int I = 0; I < 10; ++I) {
      TermId Z =
          A.mkSymConst(Symbol::get("z" + std::to_string(I)), Sort::Int);
      Cs.push_back(Formula::mkOr(Formula::mkLe(A, Z, A.mkInt(I)),
                                 Formula::mkEq(A, Z, A.mkInt(I))));
    }
    // The real core: x <= y, y <= x - 1.
    Cs.push_back(Formula::mkLe(A, X, Y));
    Cs.push_back(Formula::mkLe(A, Y, A.mkSub(X, A.mkInt(1))));
    bool Sat =
        Prover.query(AtpQuery::satisfiability(Formula::mkAnd(std::move(Cs))))
            .Verdict;
    benchmark::DoNotOptimize(Sat);
  }
}

void BM_ConflictMinimizationOn(benchmark::State &State) {
  runMinimizationQuery(true, State);
}
void BM_ConflictMinimizationOff(benchmark::State &State) {
  runMinimizationQuery(false, State);
}
BENCHMARK(BM_ConflictMinimizationOn);
BENCHMARK(BM_ConflictMinimizationOff);

/// Conflict-heavy mixed EUF+LIA workload shared by the search-schedule
/// ablations below: an unsat `<=` chain buried under boolean chaff (many
/// two-way splits the SAT core must branch through), so restarts, clause-
/// database reduction, and online theory propagation all get exercised.
void runScheduleWorkload(const AtpOptions &Options, benchmark::State &State) {
  for (auto _ : State) {
    TermArena A;
    Atp Prover(A, Options);
    std::vector<FormulaPtr> Cs;
    std::vector<TermId> X;
    for (int I = 0; I < 12; ++I)
      X.push_back(
          A.mkSymConst(Symbol::get("x" + std::to_string(I)), Sort::Int));
    // Chaff splits over chained variables: each disjunct is locally fine;
    // only the theory sees the global contradiction.
    for (int I = 0; I + 1 < 12; ++I)
      Cs.push_back(Formula::mkOr(Formula::mkLe(A, X[I], X[I + 1]),
                                 Formula::mkEq(A, X[I], X[I + 1])));
    Cs.push_back(Formula::mkLe(A, X[11], A.mkSub(X[0], A.mkInt(1))));
    // A congruence layer on top so EUF propagation has work too.
    TermId F0 = A.mkApply(Symbol::get("f$"), {X[0]}, Sort::Int);
    TermId F11 = A.mkApply(Symbol::get("f$"), {X[11]}, Sort::Int);
    Cs.push_back(Formula::mkOr(Formula::mkEq(A, F0, F11),
                               Formula::mkLe(A, F0, F11)));
    bool Sat =
        Prover.query(AtpQuery::satisfiability(Formula::mkAnd(std::move(Cs))))
            .Verdict;
    benchmark::DoNotOptimize(Sat);
  }
}

/// Online theory propagation ON vs OFF (DPLL(T) ablation): OFF falls back
/// to full-assignment checks only, so every theory contradiction costs a
/// complete boolean assignment plus a learned blocking clause.
void BM_TheoryPropagationOn(benchmark::State &State) {
  AtpOptions Options;
  Options.TheoryPropagation = true;
  runScheduleWorkload(Options, State);
}
void BM_TheoryPropagationOff(benchmark::State &State) {
  AtpOptions Options;
  Options.TheoryPropagation = false;
  runScheduleWorkload(Options, State);
}
BENCHMARK(BM_TheoryPropagationOn);
BENCHMARK(BM_TheoryPropagationOff);

/// Assert-time LIA bound propagation ON vs OFF: single-variable bound
/// constraints whose integer tightening crosses immediately, buried under
/// the same chaff shape as the schedule workload. ON refutes each branch
/// with a pivot-free bound check at the partial assignment; OFF only
/// discovers the contradiction in the full simplex gate.
void runBoundPropWorkload(bool BoundProp, benchmark::State &State) {
  AtpOptions Options;
  Options.LiaBoundPropagation = BoundProp;
  for (auto _ : State) {
    TermArena A;
    Atp Prover(A, Options);
    std::vector<FormulaPtr> Cs;
    std::vector<TermId> X;
    for (int I = 0; I < 10; ++I)
      X.push_back(
          A.mkSymConst(Symbol::get("x" + std::to_string(I)), Sort::Int));
    // Chaff splits so the SAT core has branching to do before any full
    // assignment is reached.
    for (int I = 0; I + 1 < 10; ++I)
      Cs.push_back(Formula::mkOr(Formula::mkLe(A, X[I], X[I + 1]),
                                 Formula::mkEq(A, X[I], X[I + 1])));
    // Crossed single-variable bounds: 7 <= x0 and x0 <= 3. Every branch
    // that asserts both is refutable by bound propagation alone.
    Cs.push_back(Formula::mkLe(A, A.mkInt(7), X[0]));
    Cs.push_back(Formula::mkLe(A, X[0], A.mkInt(3)));
    bool Sat =
        Prover.query(AtpQuery::satisfiability(Formula::mkAnd(std::move(Cs))))
            .Verdict;
    benchmark::DoNotOptimize(Sat);
  }
}

void BM_LiaBoundPropOn(benchmark::State &State) {
  runBoundPropWorkload(true, State);
}
void BM_LiaBoundPropOff(benchmark::State &State) {
  runBoundPropWorkload(false, State);
}
BENCHMARK(BM_LiaBoundPropOn);
BENCHMARK(BM_LiaBoundPropOff);

/// Luby restart-unit ablation: smaller bases restart aggressively (good
/// for heavy-tailed searches, pure overhead on easy ones).
void BM_RestartSchedule(benchmark::State &State) {
  AtpOptions Options;
  Options.LubyRestartBase = static_cast<uint64_t>(State.range(0));
  runScheduleWorkload(Options, State);
}
BENCHMARK(BM_RestartSchedule)->Arg(25)->Arg(100)->Arg(400);

/// Live-learnt-budget ablation: how aggressively the clause database is
/// reduced before the LBD-sorted deletion pass kicks in.
void BM_LearntBudget(benchmark::State &State) {
  AtpOptions Options;
  Options.LearntBudget = static_cast<uint32_t>(State.range(0));
  Options.LearntBudgetInc = Options.LearntBudget / 4;
  runScheduleWorkload(Options, State);
}
BENCHMARK(BM_LearntBudget)->Arg(64)->Arg(2000)->Arg(8000);

} // namespace

PEC_BENCH_MAIN();
