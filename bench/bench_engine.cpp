//===- bench_engine.cpp - Execution engine throughput -----------------------------===//
//
// Cost of the untrusted half of the TCB split (paper Sec. 7): pattern
// matching and rewriting on programs of growing size, and the ATP-backed
// dependence test behind the Commute side condition.
//
//===----------------------------------------------------------------------===//

#include "engine/Apply.h"
#include "lang/Parser.h"
#include "opts/Optimizations.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace pec;

namespace {

StmtPtr mkProgram(int64_t Loops) {
  std::string Src;
  for (int64_t I = 0; I < Loops; ++I) {
    std::string V = "v" + std::to_string(I);
    // Each block contains one copy-propagation opportunity and one loop.
    Src += V + " := w" + std::to_string(I) + "; a[" + V + "] := " + V +
           " + 1; i := 0; while (i < n) { a[i] := a[i] + " +
           std::to_string(I) + "; b := a[i]; i++; } ";
  }
  Expected<StmtPtr> S = parseProgram(Src);
  if (!S)
    reportFatalError("bench program parse error: " + S.error().str());
  return S.take();
}

/// Matching the copy-propagation pattern over a growing program.
void BM_FindMatches(benchmark::State &State) {
  Rule R = parseRuleOrDie(findOpt("copy_propagation").RuleText);
  StmtPtr Program = mkProgram(State.range(0));
  size_t Matches = 0;
  for (auto _ : State) {
    std::vector<MatchSite> Sites = findMatches(R.Before, Program);
    Matches = Sites.size();
    benchmark::DoNotOptimize(Sites.data());
  }
  State.counters["sites"] = static_cast<double>(Matches);
}
BENCHMARK(BM_FindMatches)->Arg(1)->Arg(4)->Arg(16);

/// One full applyRule round (match + side conditions + rewrite).
void BM_ApplyRule(benchmark::State &State) {
  Rule R = parseRuleOrDie(findOpt("loop_peeling").RuleText);
  StmtPtr Program = mkProgram(State.range(0));
  for (auto _ : State) {
    bool Changed = false;
    StmtPtr Out = applyRule(Program, R, pickFirst, EngineOptions{}, Changed);
    benchmark::DoNotOptimize(Out.get());
  }
}
BENCHMARK(BM_ApplyRule)->Arg(1)->Arg(4)->Arg(16);

/// The ATP-backed array dependence test (the engine's Omega-test stand-in).
void BM_DependenceTest(benchmark::State &State) {
  StmtPtr A = *parseProgram("a[i + 2] := a[i + 2] + 1;");
  StmtPtr B = *parseProgram("b[i + 1] := b[i + 1] + a[i + 1];");
  for (auto _ : State) {
    bool Independent = fragmentsIndependent(A, B);
    benchmark::DoNotOptimize(Independent);
  }
}
BENCHMARK(BM_DependenceTest);

/// One pipelining round (retime + reorder to fixpoint) on the paper's
/// Figure 1 kernel.
void BM_PipelineRoundFigure1(benchmark::State &State) {
  const OptEntry &Swp = findOpt("software_pipelining");
  Rule T1 = parseRuleOrDie(Swp.RuleText);
  Rule T2 = parseRuleOrDie(Swp.ExtraRuleTexts[0]);
  StmtPtr Program = *parseProgram(R"(
    i := 0;
    while (i < n) {
      a[i] += 1;
      b[i] += a[i];
      c[i] += b[i];
      i++;
    }
  )");
  EngineOptions Options;
  Options.Oracle = [](const std::string &Fact,
                      const std::vector<std::string> &) {
    return Fact == "StrictlyPositive";
  };
  for (auto _ : State) {
    bool Changed = false;
    StmtPtr Out = applyRule(Program, T1, pickFirst, Options, Changed);
    Out = applyRuleToFixpoint(Out, T2, pickFirst, Options, 4);
    benchmark::DoNotOptimize(Out.get());
  }
}
BENCHMARK(BM_PipelineRoundFigure1);

} // namespace

BENCHMARK_MAIN();
