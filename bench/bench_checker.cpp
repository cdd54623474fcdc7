//===- bench_checker.cpp - PEC pipeline scaling ----------------------------------===//
//
// How the Correlate + Checker pipeline scales with rule size:
//
//   * straight-line rules with k meta-statements (relation size grows
//     linearly, constraints quadratically in branch width);
//   * loop rules whose bodies contain k meta-statements;
//   * branchy rules with k if-arms (path-pair blowup).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "pec/Pec.h"

#include <benchmark/benchmark.h>

#include <string>

using namespace pec;

namespace {

Rule mkRule(const std::string &Text) {
  Expected<Rule> R = parseRule(Text);
  if (!R)
    reportFatalError("bench rule parse error: " + R.error().str());
  return R.take();
}

/// Identity rule over k sequential meta-statements.
void BM_StraightLine(benchmark::State &State) {
  int64_t K = State.range(0);
  std::string Body;
  for (int64_t I = 0; I < K; ++I)
    Body += "S" + std::to_string(I) + "; ";
  Rule R = mkRule("rule straight { " + Body + " } => { " + Body + " }");
  PecResult Last;
  for (auto _ : State) {
    Last = proveRule(R);
    benchmark::DoNotOptimize(Last.Proved);
  }
  State.counters["atp_queries"] = static_cast<double>(Last.AtpQueries);
  State.counters["relation"] = static_cast<double>(Last.RelationSize);
  State.counters["proved"] = Last.Proved ? 1 : 0;
}
BENCHMARK(BM_StraightLine)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

/// Loop-peeling-shaped rule with a k-statement loop body.
void BM_LoopBody(benchmark::State &State) {
  int64_t K = State.range(0);
  std::string Body;
  for (int64_t I = 0; I < K; ++I)
    Body += "S" + std::to_string(I) + "; ";
  Rule R = mkRule("rule peelk { while (E0) { " + Body + " } } => { "
                  "if (E0) { " + Body + " while (E0) { " + Body + " } } }");
  PecResult Last;
  for (auto _ : State) {
    Last = proveRule(R);
    benchmark::DoNotOptimize(Last.Proved);
  }
  State.counters["atp_queries"] = static_cast<double>(Last.AtpQueries);
  State.counters["relation"] = static_cast<double>(Last.RelationSize);
  State.counters["proved"] = Last.Proved ? 1 : 0;
}
BENCHMARK(BM_LoopBody)->Arg(1)->Arg(2)->Arg(4);

/// Dead-branch elimination over a cascade of k identical if-arms.
void BM_Branches(benchmark::State &State) {
  int64_t K = State.range(0);
  std::string Before, After = "S0;";
  for (int64_t I = 0; I < K; ++I)
    Before += "if (E" + std::to_string(I) + ") { S0; } else { S0; } ";
  // Keeping only one arm cascade-collapses to S0 repeated k times.
  std::string AfterSeq;
  for (int64_t I = 0; I < K; ++I)
    AfterSeq += "S0; ";
  Rule R =
      mkRule("rule branches { " + Before + " } => { " + AfterSeq + " }");
  PecResult Last;
  for (auto _ : State) {
    Last = proveRule(R);
    benchmark::DoNotOptimize(Last.Proved);
  }
  State.counters["atp_queries"] = static_cast<double>(Last.AtpQueries);
  State.counters["relation"] = static_cast<double>(Last.RelationSize);
  State.counters["proved"] = Last.Proved ? 1 : 0;
}
BENCHMARK(BM_Branches)->Arg(1)->Arg(2)->Arg(3);

/// Response-slack ablation on the hoisting rule. Catch-up (multi-segment)
/// responses make the direct proof go through at slack 1; at slack 0 the
/// checker still succeeds but only via the driver's ban-and-retry loop
/// (more queries); slack 2 adds cost without benefit.
void BM_ResponseSlack(benchmark::State &State) {
  int64_t Slack = State.range(0);
  Rule R = mkRule(R"(rule licm {
      while (E0) { L1: S1; L3: S2; }
    } => {
      if (E0) { L4: S1; while (E0) { L5: S2; } }
    } where Idempotent(S1) @ L1 && StableUnder(S1, S2) @ L3
         && Idempotent(S1) @ L4 && StableUnder(S1, S2) @ L5
         && DoesNotModify(S1, E0) @ L1 && DoesNotModify(S2, E0) @ L3
         && DoesNotModify(S1, E0) @ L4 && DoesNotModify(S2, E0) @ L5)");
  PecOptions Options;
  Options.Checker.ResponseSlack = static_cast<size_t>(Slack);
  PecResult Last;
  for (auto _ : State) {
    Last = proveRule(R, Options);
    benchmark::DoNotOptimize(Last.Proved);
  }
  State.counters["atp_queries"] = static_cast<double>(Last.AtpQueries);
  State.counters["proved"] = Last.Proved ? 1 : 0;
}
BENCHMARK(BM_ResponseSlack)->Arg(0)->Arg(1)->Arg(2);

/// Translation validation cost over growing concrete programs (paper
/// Sec. 2.3: PEC subsumes TV); the transformed side folds each block's
/// constant.
void BM_TranslationValidation(benchmark::State &State) {
  int64_t Blocks = State.range(0);
  std::string Orig, Trans;
  for (int64_t I = 0; I < Blocks; ++I) {
    std::string N = std::to_string(I);
    Orig += "c" + N + " := 2 + " + N + "; i" + N + " := 0; "
            "while (i" + N + " < n) { a[i" + N + "] := a[i" + N + "] + c" +
            N + "; i" + N + " := i" + N + " + 1; } ";
    Trans += "c" + N + " := " + std::to_string(2 + I) + "; i" + N +
             " := 0; while (i" + N + " < n) { a[i" + N + "] := a[i" + N +
             "] + c" + N + "; i" + N + " := i" + N + " + 1; } ";
  }
  Expected<StmtPtr> P1 = parseProgram(Orig), P2 = parseProgram(Trans);
  if (!P1 || !P2)
    reportFatalError("bench TV parse error");
  PecResult Last;
  for (auto _ : State) {
    Last = proveEquivalence(*P1, *P2);
    benchmark::DoNotOptimize(Last.Proved);
  }
  State.counters["atp_queries"] = static_cast<double>(Last.AtpQueries);
  State.counters["proved"] = Last.Proved ? 1 : 0;
}
BENCHMARK(BM_TranslationValidation)->Arg(1)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();
