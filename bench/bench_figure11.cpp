//===- bench_figure11.cpp - Regenerates the paper's Figure 11 -------------------===//
//
// The paper's entire evaluation is one table (Fig. 11): the 18
// optimizations proven correct, whether each uses the Permute module, the
// wall time of the PEC run, and the number of theorem-prover queries.
//
// This binary prints the regenerated table next to the paper's numbers,
// then runs google-benchmark timings for each row. Absolute times are not
// comparable (2009 hardware + the Simplify prover vs. our from-scratch
// solver); the reproduced *shape* is: every row proves, the permute column
// matches, category-1 rules are the cheapest, and unswitching/splitting/
// unrolling-style category-3 bisimulation rules dominate query counts
// while permute-based rows stay small.
//
// The suite is additionally proven under the pec::parallel scheduler at
// jobs 1 and jobs 4 (shared ATP cache in both): the printed summary and
// the `figure11_suite/jobs` benchmark rows record the wall-clock of each
// configuration, and the proved sets must be identical.
//
// Extra flag (stripped before google-benchmark sees it):
//
//   --pec-json=FILE   write a pec-report-v6 JSON of the suite to FILE —
//                     the schema-stable document committed as
//                     BENCH_figure11.json (generated at --jobs 1, the
//                     scheduling-independent configuration)
//
//===----------------------------------------------------------------------===//

#include "opts/Optimizations.h"
#include "pec/Pec.h"
#include "pec/Report.h"
#include "solver/AtpCache.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

using namespace pec;

namespace {

/// Proves every rule of an optimization; aggregates stats.
PecResult proveAll(const OptEntry &Entry) {
  PecResult Total;
  Total.Proved = true;
  std::vector<std::string> Rules = {Entry.RuleText};
  Rules.insert(Rules.end(), Entry.ExtraRuleTexts.begin(),
               Entry.ExtraRuleTexts.end());
  for (const std::string &Text : Rules) {
    PecResult R = proveRule(parseRuleOrDie(Text));
    Total.Proved = Total.Proved && R.Proved;
    Total.UsedPermute = Total.UsedPermute || R.UsedPermute;
    Total.AtpQueries += R.AtpQueries;
    Total.Seconds += R.Seconds;
    Total.Strengthenings += R.Strengthenings;
    Total.RelationSize += R.RelationSize;
  }
  return Total;
}

void printTable() {
  std::printf("\nFigure 11 — optimizations proven correct using PEC\n");
  std::printf("%-34s %-4s %-8s | %-9s %-9s | %-9s %-9s\n", "optimization",
              "cat", "permute", "time(s)", "paper(s)", "#ATP", "paper#ATP");
  std::printf("%s\n", std::string(96, '-').c_str());
  bool AllProved = true;
  for (const OptEntry &Entry : figure11Suite()) {
    PecResult R = proveAll(Entry);
    AllProved = AllProved && R.Proved;
    std::printf("%-34s %-4d %-8s | %-9.3f %-9d | %-9llu %-9d %s\n",
                Entry.Name.c_str(), Entry.Category,
                R.UsedPermute ? "yes" : "no", R.Seconds, Entry.PaperSeconds,
                static_cast<unsigned long long>(R.AtpQueries),
                Entry.PaperAtpCalls, R.Proved ? "" : "  ** NOT PROVED **");
    if (R.UsedPermute != Entry.UsesPermute)
      std::printf("    ** permute usage differs from the paper **\n");
  }
  std::printf("%s\n", std::string(96, '-').c_str());
  std::printf("all optimizations proved: %s\n\n",
              AllProved ? "yes" : "NO");
}

/// All suite rules, flattened in suite order (one Rule per rule text).
std::vector<Rule> suiteRules() {
  std::vector<Rule> Rules;
  for (const OptEntry &Entry : figure11Suite()) {
    std::vector<std::string> Texts = {Entry.RuleText};
    Texts.insert(Texts.end(), Entry.ExtraRuleTexts.begin(),
                 Entry.ExtraRuleTexts.end());
    for (const std::string &Text : Texts)
      Rules.push_back(parseRuleOrDie(Text));
  }
  return Rules;
}

struct SuiteRun {
  std::vector<RuleReport> Reports;
  double WallSeconds = 0;
  AtpCacheStats Cache;
};

/// Proves the whole suite on \p Jobs worker threads with a shared ATP
/// cache (sequentially for jobs 1) — the same configuration as
/// `pec prove-suite --jobs N`.
SuiteRun runSuite(unsigned Jobs) {
  SuiteRun Out;
  std::vector<Rule> Rules = suiteRules();
  Out.Reports.resize(Rules.size());
  AtpCache Cache;
  PecOptions Options;
  Options.Cache = &Cache;
  auto Start = std::chrono::steady_clock::now();
  if (Jobs > 1) {
    ThreadPool Pool(Jobs);
    TaskGroup Group(Pool);
    for (size_t I = 0; I < Rules.size(); ++I)
      Group.spawn([&Rules, &Out, &Options, I] {
        Out.Reports[I] = {Rules[I].Name, proveRule(Rules[I], Options)};
      });
    Group.wait();
  } else {
    for (size_t I = 0; I < Rules.size(); ++I)
      Out.Reports[I] = {Rules[I].Name, proveRule(Rules[I], Options)};
  }
  Out.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  Out.Cache = Cache.stats();
  return Out;
}

/// Proves the suite at jobs 1 and jobs 4 and prints the wall-clock of
/// each — the headline number for the parallel scheduler. The proved
/// sets must agree rule by rule.
void printParallelSummary() {
  SuiteRun Seq = runSuite(1);
  SuiteRun Par = runSuite(4);
  bool SameOutcomes = Seq.Reports.size() == Par.Reports.size();
  unsigned Proved = 0;
  for (size_t I = 0; SameOutcomes && I < Seq.Reports.size(); ++I)
    SameOutcomes = Seq.Reports[I].Name == Par.Reports[I].Name &&
                   Seq.Reports[I].Result.Proved == Par.Reports[I].Result.Proved;
  for (const RuleReport &R : Par.Reports)
    Proved += R.Result.Proved ? 1 : 0;
  std::printf("parallel scheduler — %u hardware threads\n",
              std::thread::hardware_concurrency());
  std::printf("  jobs=1: %.3fs wall, %llu cache hits / %llu misses\n",
              Seq.WallSeconds,
              static_cast<unsigned long long>(Seq.Cache.Hits),
              static_cast<unsigned long long>(Seq.Cache.Misses));
  std::printf("  jobs=4: %.3fs wall, %llu cache hits / %llu misses "
              "(speedup %.2fx)\n",
              Par.WallSeconds,
              static_cast<unsigned long long>(Par.Cache.Hits),
              static_cast<unsigned long long>(Par.Cache.Misses),
              Par.WallSeconds > 0 ? Seq.WallSeconds / Par.WallSeconds : 0.0);
  std::printf("  identical proved sets: %s (%u/%zu proved)\n\n",
              SameOutcomes ? "yes" : "NO  ** MISMATCH **", Proved,
              Par.Reports.size());
}

/// Whole-suite wall-clock at a given worker count — the benchmark rows
/// that make the parallel speedup visible in CI (`figure11_suite/jobs`).
void BM_ProveSuite(benchmark::State &State) {
  unsigned Jobs = static_cast<unsigned>(State.range(0));
  unsigned Proved = 0;
  for (auto _ : State) {
    SuiteRun R = runSuite(Jobs);
    Proved = 0;
    for (const RuleReport &Rep : R.Reports)
      Proved += Rep.Result.Proved ? 1 : 0;
    benchmark::DoNotOptimize(Proved);
  }
  State.counters["jobs"] = Jobs;
  State.counters["proved"] = Proved;
}

void BM_ProveOptimization(benchmark::State &State, const OptEntry &Entry) {
  PecResult Last;
  for (auto _ : State) {
    Last = proveAll(Entry);
    benchmark::DoNotOptimize(Last.Proved);
  }
  State.counters["atp_queries"] = static_cast<double>(Last.AtpQueries);
  State.counters["relation"] = static_cast<double>(Last.RelationSize);
  State.counters["strengthenings"] =
      static_cast<double>(Last.Strengthenings);
  State.counters["proved"] = Last.Proved ? 1 : 0;
}

/// Writes the pec-report-v6 JSON for the whole suite (one entry per
/// rule, like `pec prove-suite --jobs 1 --report json`) to \p Path. The
/// committed baseline is generated at jobs 1 so its per-rule numbers do
/// not depend on the core count of the generating machine. Returns false
/// (after a diagnostic) when the file cannot be written — the caller must
/// exit nonzero rather than silently drop the artifact.
bool writeSuiteReport(const std::string &Path) {
  SuiteRun Run = runSuite(1);
  RunInfo Info;
  Info.Jobs = 1;
  Info.HardwareConcurrency = std::thread::hardware_concurrency();
  Info.WallSeconds = Run.WallSeconds;
  Info.CacheEnabled = true;
  Info.Cache = Run.Cache;
  Info.Metrics = pec::metrics::snapshot();
  std::string Doc = renderJsonReport("bench_figure11", Run.Reports, &Info);
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 Path.c_str());
    return false;
  }
  size_t Written = std::fwrite(Doc.data(), 1, Doc.size(), Out);
  std::fclose(Out);
  if (Written != Doc.size()) {
    std::fprintf(stderr, "error: short write to '%s'\n", Path.c_str());
    return false;
  }
  std::fprintf(stderr, "pec report written to %s\n", Path.c_str());
  return true;
}

} // namespace

int main(int argc, char **argv) {
  // google-benchmark rejects flags it does not know: strip ours first.
  const std::string JsonPrefix = "--pec-json=";
  std::string JsonPath;
  int Kept = 1;
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]).rfind(JsonPrefix, 0) == 0)
      JsonPath = argv[I] + JsonPrefix.size();
    else
      argv[Kept++] = argv[I];
  }
  argc = Kept;
  printTable();
  printParallelSummary();
  if (!JsonPath.empty() && !writeSuiteReport(JsonPath))
    return 1;
  benchmark::RegisterBenchmark("figure11_suite/jobs", BM_ProveSuite)
      ->Arg(1)
      ->Arg(4)
      ->Unit(benchmark::kMillisecond);
  for (const OptEntry &Entry : figure11Suite())
    benchmark::RegisterBenchmark(("figure11/" + Entry.Name).c_str(),
                                 BM_ProveOptimization, Entry);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
