//===- pec_main.cpp - The pec command-line tool ----------------------------------===//
//
// Command-line front end for the PEC library:
//
//   pec prove <rules-file>            prove every rule in the file
//   pec prove-suite                   prove the paper's Figure 11 suite
//   pec explain <rules-file>          diagnose the failing rules
//   pec report diff <old> <new>       regression-gate two report JSONs
//   pec report timeline <journal>     critical-path / wasted-work analysis
//   pec apply <rules-file> <program>  apply the rules to a program
//   pec tv <original> <transformed>   translation validation
//   pec cfg <program>                 dump the program's CFG
//
// `apply` accepts --fixpoint (repeat until no rule fires) and
// --assume-positive (an analysis oracle accepting every StrictlyPositive
// side condition — for kernels whose trip counts are known positive).
//
// The proving commands (prove, prove-suite, tv, explain) additionally
// accept the observability flags (docs/OBSERVABILITY.md):
//
//   --trace FILE         write a Chrome trace_event JSON of the run to FILE
//   --journal FILE       write a pec-journal-v1 causal run journal to FILE
//   --report json        emit the pec-report-v6 JSON document on stdout
//                        (human-readable lines move to stderr)
//   --stats              print the per-rule phase/ATP statistics table
//   --metrics-out FILE   write the pec::metrics registry in Prometheus
//                        text exposition format to FILE
//   --slow-query-ms N    dump the flight recorder when a single ATP query
//                        exceeds N milliseconds
//   --log json|text      structured log format on stderr (default text)
//   --log-level LEVEL    debug|info|warn|error|off (default warn)
//
// and (prove, prove-suite) the parallelism flags (docs/PARALLELISM.md):
//
//   --jobs N        prove rules on N worker threads sharing one ATP
//                   cache (0 = one per hardware thread); --jobs 1 is the
//                   sequential-but-cached configuration
//   --cache-stats   print the shared ATP cache counters after the run
//
//===----------------------------------------------------------------------===//

#include "cfg/Cfg.h"
#include "engine/Apply.h"
#include "fuzz/Corpus.h"
#include "fuzz/Differ.h"
#include "fuzz/RuleFuzz.h"
#include "interp/Interp.h"
#include "lang/Parser.h"
#include "lang/Printer.h"
#include "opts/Optimizations.h"
#include "pec/Explain.h"
#include "pec/Pec.h"
#include "pec/Report.h"
#include "pec/Timeline.h"
#include "serve/Serve.h"
#include "solver/AtpCache.h"
#include "support/Escape.h"
#include "support/FlightRecorder.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace pec;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  pec prove <rules-file> [--jobs N] [--cache-stats] "
               "[--cache-dir DIR] [observability flags]\n"
               "  pec prove-suite [--jobs N] [--cache-stats] "
               "[--cache-dir DIR] [observability flags]\n"
               "  pec serve --socket PATH [--jobs N] [--cache-dir DIR]\n"
               "            [--max-queue N] [--checkpoint-every N]\n"
               "  pec client --socket PATH <verb> [args...]\n"
               "  pec explain <rules-file> [rule-name] [--dot FILE] [observability flags]\n"
               "  pec report diff <old.json> <new.json> "
               "[--time-tolerance F] [--time-slack S]\n"
               "                  [--query-tolerance F] [--query-slack N]\n"
               "                  [--strengthening-time-tolerance F]"
               " [--strengthening-time-slack-us N]\n"
               "                  [--strengthening-query-tolerance F]"
               " [--strengthening-query-slack N]\n"
               "                  [--p50-tolerance F] [--p50-slack-us N]"
               " [--p99-tolerance F] [--p99-slack-us N]\n"
               "                  [--min-hit-rate R]\n"
               "  pec report timeline <journal.jsonl> [--json]\n"
               "  pec apply <rules-file> <program-file> [--fixpoint] "
               "[--assume-positive] [--staged]\n"
               "  pec tv <original-file> <transformed-file> "
               "[observability flags]\n"
               "  pec cfg <program-file>\n"
               "  pec interp <program-file> [var=value | arr[i]=value]...\n"
               "  pec fuzz <rules-file> [--seed S] [--programs N] "
               "[--states K]\n"
               "           [--max-sites N] [--fuel N] [--allow-div] "
               "[--jobs N]\n"
               "           [--assume-proved] [--no-minimize] "
               "[--query-budget-ms B]\n"
               "           [--corpus-dir DIR] [--append-scenarios]\n"
               "           [--mutate-rules N] [--summary-json FILE]\n"
               "  pec fuzz --replay-corpus DIR [--query-budget-ms B]\n"
               "\n"
               "observability flags (prove, prove-suite, tv, explain):\n"
               "  --trace FILE    write a Chrome trace_event JSON to FILE\n"
               "  --journal FILE  append a pec-journal-v1 causal run journal\n"
               "                  (analyze with `pec report timeline`)\n"
               "  --report json   emit the pec-report-v6 JSON on stdout\n"
               "  --stats         print the per-rule statistics table\n"
               "  --metrics-out FILE  write Prometheus-format metrics to "
               "FILE\n"
               "  --slow-query-ms N   flight-recorder dump when one ATP\n"
               "                      query exceeds N milliseconds\n"
               "  --log json|text     structured stderr log format\n"
               "  --log-level LEVEL   debug|info|warn|error|off\n"
               "\n"
               "parallelism flags (prove, prove-suite):\n"
               "  --jobs N        prove on N worker threads with a shared\n"
               "                  ATP cache (0 = one per hardware thread;\n"
               "                  --jobs 1 is sequential but cached)\n"
               "  --cache-stats   print the ATP cache counters after the "
               "run\n"
               "  --cache-dir DIR persist the ATP cache under DIR\n"
               "                  (snapshot + journal; loaded at startup,\n"
               "                  checkpointed after the run — enables the\n"
               "                  cache even without --jobs)\n"
               "  --query-budget-ms B  wall-clock budget per ATP query\n"
               "                  (0 = unlimited; exhaustion degrades the\n"
               "                  answer conservatively, never unsoundly)\n"
               "\n"
               "`pec explain` re-proves the rules and prints a structured\n"
               "failure diagnosis (counterexample model, minimized failing\n"
               "obligation) for each rule that fails; --dot writes a\n"
               "Graphviz drawing of both CFGs with the correlation entries\n"
               "for the first failing rule. `pec report diff` compares two\n"
               "report JSONs and exits 1 on a regression (proved-set\n"
               "shrinkage, time/query budget breach, schema drift).\n");
  return 2;
}

/// The observability flags shared by prove, prove-suite, and tv.
struct OutputOptions {
  std::string TracePath;
  std::string MetricsPath;
  std::string JournalPath;
  bool ReportJson = false;
  bool Stats = false;
  /// Worker-thread count for prove/prove-suite. The shared ATP cache is
  /// enabled whenever --jobs was given, even --jobs 1 (sequential but
  /// cached); without the flag the run is the legacy sequential, uncached
  /// configuration.
  unsigned Jobs = 1;
  bool JobsSet = false;
  bool CacheStats = false;
  /// Persistent ATP-cache directory (docs/SERVING.md). Giving the flag
  /// enables the shared cache even for sequential runs, loads the store
  /// before proving, and checkpoints it after.
  std::string CacheDir;
  /// Per-query ATP wall-clock budget in ms (0 = unlimited).
  uint64_t QueryBudgetMs = 0;

  /// Human-readable proof lines go to stderr in report mode so stdout
  /// stays pure JSON for downstream parsers.
  FILE *humanStream() const { return ReportJson ? stderr : stdout; }
};

/// Strips the observability and parallelism flags (--trace, --report,
/// --stats, --metrics-out, --slow-query-ms, --log, --log-level, --jobs,
/// --cache-stats) out of \p Args. Returns false on a malformed flag
/// (missing file name, unknown report format, non-numeric job count).
bool parseOutputOptions(std::vector<std::string> &Args, OutputOptions &Out) {
  std::vector<std::string> Rest;
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I] == "--trace") {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "error: --trace requires a file name\n");
        return false;
      }
      Out.TracePath = Args[++I];
    } else if (Args[I] == "--report") {
      if (I + 1 >= Args.size() || Args[I + 1] != "json") {
        std::fprintf(stderr, "error: --report supports only 'json'\n");
        return false;
      }
      Out.ReportJson = true;
      ++I;
    } else if (Args[I] == "--stats") {
      Out.Stats = true;
    } else if (Args[I] == "--journal") {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "error: --journal requires a file name\n");
        return false;
      }
      Out.JournalPath = Args[++I];
    } else if (Args[I] == "--metrics-out") {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "error: --metrics-out requires a file name\n");
        return false;
      }
      Out.MetricsPath = Args[++I];
    } else if (Args[I] == "--slow-query-ms") {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr,
                     "error: --slow-query-ms requires a millisecond count\n");
        return false;
      }
      char *End = nullptr;
      long N = std::strtol(Args[I + 1].c_str(), &End, 10);
      if (!End || *End != '\0' || N < 0) {
        std::fprintf(stderr, "error: bad --slow-query-ms value '%s'\n",
                     Args[I + 1].c_str());
        return false;
      }
      ++I;
      flight::setSlowQueryThresholdUs(static_cast<uint64_t>(N) * 1000);
    } else if (Args[I] == "--log") {
      log::Format F;
      if (I + 1 >= Args.size() || !log::parseFormat(Args[I + 1], F)) {
        std::fprintf(stderr, "error: --log supports 'json' or 'text'\n");
        return false;
      }
      ++I;
      log::setFormat(F);
    } else if (Args[I] == "--log-level") {
      log::Level L;
      if (I + 1 >= Args.size() || !log::parseLevel(Args[I + 1], L)) {
        std::fprintf(stderr, "error: --log-level wants "
                             "debug|info|warn|error|off\n");
        return false;
      }
      ++I;
      log::setLevel(L);
    } else if (Args[I] == "--jobs") {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "error: --jobs requires a thread count\n");
        return false;
      }
      char *End = nullptr;
      long N = std::strtol(Args[I + 1].c_str(), &End, 10);
      if (!End || *End != '\0' || N < 0) {
        std::fprintf(stderr, "error: bad --jobs value '%s'\n",
                     Args[I + 1].c_str());
        return false;
      }
      ++I;
      Out.Jobs = N == 0 ? ThreadPool::hardwareJobs()
                        : static_cast<unsigned>(N);
      Out.JobsSet = true;
    } else if (Args[I] == "--query-budget-ms") {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr,
                     "error: --query-budget-ms requires a millisecond "
                     "count\n");
        return false;
      }
      char *End = nullptr;
      long long N = std::strtoll(Args[I + 1].c_str(), &End, 10);
      if (!End || *End != '\0' || N < 0) {
        std::fprintf(stderr, "error: bad --query-budget-ms value '%s'\n",
                     Args[I + 1].c_str());
        return false;
      }
      ++I;
      Out.QueryBudgetMs = static_cast<uint64_t>(N);
    } else if (Args[I] == "--cache-stats") {
      Out.CacheStats = true;
    } else if (Args[I] == "--cache-dir") {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "error: --cache-dir requires a directory\n");
        return false;
      }
      Out.CacheDir = Args[++I];
    } else {
      Rest.push_back(Args[I]);
    }
  }
  Args = std::move(Rest);
  if (!Out.TracePath.empty()) {
    telemetry::reset();
    telemetry::setEnabled(true);
  }
  if (!Out.JournalPath.empty() && !trace::journalOpen(Out.JournalPath)) {
    std::fprintf(stderr, "error: cannot write journal to '%s'\n",
                 Out.JournalPath.c_str());
    return false;
  }
  return true;
}

/// Emits the trace file, the JSON report, the stats table, and the cache
/// counters as requested. \p Exit is the command's exit code, passed
/// through. \p Run may be null for sequential, uncached commands.
int finishRun(const OutputOptions &Opts, const std::string &Command,
              const std::vector<RuleReport> &Rules, int Exit,
              const RunInfo *Run = nullptr) {
  if (!Opts.TracePath.empty()) {
    telemetry::setEnabled(false);
    if (!telemetry::writeChromeTrace(Opts.TracePath)) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                   Opts.TracePath.c_str());
      Exit = Exit ? Exit : 1; // The requested artifact is missing.
    } else {
      std::fprintf(Opts.humanStream(), "trace written to %s\n",
                   Opts.TracePath.c_str());
    }
  }
  if (!Opts.JournalPath.empty()) {
    trace::journalClose();
    std::fprintf(Opts.humanStream(), "journal written to %s\n",
                 Opts.JournalPath.c_str());
  }
  if (!Opts.MetricsPath.empty()) {
    std::string Prom = metrics::renderPrometheus(metrics::snapshot());
    FILE *F = std::fopen(Opts.MetricsPath.c_str(), "w");
    if (!F || std::fwrite(Prom.data(), 1, Prom.size(), F) != Prom.size()) {
      std::fprintf(stderr, "error: cannot write metrics to '%s'\n",
                   Opts.MetricsPath.c_str());
      Exit = Exit ? Exit : 1;
    } else {
      std::fprintf(Opts.humanStream(), "metrics written to %s\n",
                   Opts.MetricsPath.c_str());
    }
    if (F)
      std::fclose(F);
  }
  if (Opts.Stats)
    std::fprintf(Opts.humanStream(), "\n%s",
                 renderStatsTable(Rules).c_str());
  if (Opts.CacheStats) {
    if (Run && Run->CacheEnabled) {
      std::fprintf(Opts.humanStream(), "%s",
                   renderCacheStatsTable(Run->Cache).c_str());
    } else {
      std::fprintf(Opts.humanStream(),
                   "atp cache: disabled (pass --jobs or --cache-dir to "
                   "enable)\n");
    }
  }
  if (Opts.ReportJson) {
    std::string Doc = renderJsonReport(Command, Rules, Run);
    std::fwrite(Doc.data(), 1, Doc.size(), stdout);
  }
  return Exit;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return false;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

void printProof(FILE *Out, const std::string &Name, const PecResult &R) {
  if (R.Proved) {
    std::fprintf(Out, "%-30s PROVED  (%s, %llu ATP queries, %.3fs)\n",
                 Name.c_str(), R.UsedPermute ? "permute" : "bisimulation",
                 static_cast<unsigned long long>(R.AtpQueries), R.Seconds);
    if (!R.RequiredDeadVars.empty()) {
      std::fprintf(Out, "%-30s note: requires dead index variables:", "");
      for (Symbol V : R.RequiredDeadVars)
        std::fprintf(Out, " %s", std::string(V.str()).c_str());
      std::fprintf(Out, "\n");
    }
  } else if (R.Kind != FailureKind::None) {
    std::fprintf(Out, "%-30s NOT PROVED [%s]: %s\n", Name.c_str(),
                 failureKindName(R.Kind), R.FailureReason.c_str());
  } else {
    std::fprintf(Out, "%-30s NOT PROVED: %s\n", Name.c_str(),
                 R.FailureReason.c_str());
  }
}

/// Proves \p Rules under \p Opts.Jobs worker threads (sequentially for
/// jobs 1), sharing one ATP cache across the run when --jobs was given.
/// Proof lines print in rule order regardless of completion order, and
/// \p Run receives the parallelism/cache context for the v3 report.
std::vector<RuleReport> runProofs(const std::vector<Rule> &Rules,
                                  const PecOptions &BaseOptions,
                                  const OutputOptions &Opts, RunInfo &Run) {
  auto Start = std::chrono::steady_clock::now();
  std::vector<RuleReport> Reports(Rules.size());

  std::unique_ptr<AtpCache> Cache;
  if (Opts.JobsSet || !Opts.CacheDir.empty())
    Cache = std::make_unique<AtpCache>();
  if (Cache && !Opts.CacheDir.empty()) {
    // Attach (and load) the persistent store before any lookups. An
    // unusable directory degrades to an unpersisted run — the proofs are
    // unaffected, so warn rather than fail.
    std::string Error;
    if (!Cache->attachStore(Opts.CacheDir, &Error))
      std::fprintf(stderr, "warning: cache store disabled: %s\n",
                   Error.c_str());
  }
  PecOptions Options = BaseOptions;
  Options.Cache = Cache.get();
  Options.Atp.QueryBudgetMs = Opts.QueryBudgetMs;

  // Root of the causal journal: every rule span records this as its
  // parent (ThreadPool::submit carries the context to the workers).
  trace::Span RunTrace("run");
  RunTrace.attr("jobs", static_cast<uint64_t>(Opts.Jobs));
  RunTrace.attr("rules", static_cast<uint64_t>(Rules.size()));

  if (Opts.Jobs > 1) {
    ThreadPool Pool(Opts.Jobs);
    TaskGroup Group(Pool);
    for (size_t I = 0; I < Rules.size(); ++I)
      Group.spawn([&Rules, &Reports, &Options, I] {
        Reports[I] = {Rules[I].Name, proveRule(Rules[I], Options)};
      });
    Group.wait();
  } else {
    for (size_t I = 0; I < Rules.size(); ++I)
      Reports[I] = {Rules[I].Name, proveRule(Rules[I], Options)};
  }
  // End the root before wall-clock is measured so the journal's critical
  // path is bounded by the wall time the report prints.
  RunTrace.end();

  for (const RuleReport &R : Reports)
    printProof(Opts.humanStream(), R.Name, R.Result);

  Run.Jobs = Opts.Jobs;
  Run.HardwareConcurrency = std::thread::hardware_concurrency();
  Run.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  Run.CacheEnabled = Cache != nullptr;
  if (Cache && Cache->store()) {
    // Compact journal + snapshot so the next run loads one clean file;
    // folded into the run's checkpoint time, so taken before stats.
    std::string Error;
    if (!Cache->checkpoint(&Error))
      std::fprintf(stderr, "warning: cache checkpoint failed: %s\n",
                   Error.c_str());
  }
  if (Cache)
    Run.Cache = Cache->stats();
  // The pool (if any) was destroyed above, so every recording thread has
  // quiesced and this merge is deterministic.
  Run.Metrics = metrics::snapshot();
  return Reports;
}

int cmdProve(const std::string &Path, const OutputOptions &Opts) {
  std::string Source;
  if (!readFile(Path, Source))
    return 1;
  Expected<RuleFile> File = parseRuleFile(Source);
  if (!File) {
    std::fprintf(stderr, "parse error: %s\n", File.error().str().c_str());
    return 1;
  }
  PecOptions Options;
  Options.UserFacts = File->Facts;
  if (!File->Facts.empty())
    std::fprintf(Opts.humanStream(), "using %zu user fact declaration(s)\n",
                 File->Facts.size());
  RunInfo Run;
  std::vector<RuleReport> Reports =
      runProofs(File->Rules, Options, Opts, Run);
  int Failures = 0;
  for (const RuleReport &R : Reports)
    Failures += R.Result.Proved ? 0 : 1;
  return finishRun(Opts, "prove", Reports, Failures == 0 ? 0 : 1, &Run);
}

int cmdProveSuite(const OutputOptions &Opts) {
  std::vector<Rule> Rules;
  for (const OptEntry &Entry : figure11Suite()) {
    std::vector<std::string> Texts = {Entry.RuleText};
    Texts.insert(Texts.end(), Entry.ExtraRuleTexts.begin(),
                 Entry.ExtraRuleTexts.end());
    for (const std::string &Text : Texts)
      Rules.push_back(parseRuleOrDie(Text));
  }
  RunInfo Run;
  std::vector<RuleReport> Reports = runProofs(Rules, {}, Opts, Run);
  int Failures = 0;
  for (const RuleReport &R : Reports)
    Failures += R.Result.Proved ? 0 : 1;
  return finishRun(Opts, "prove-suite", Reports, Failures == 0 ? 0 : 1,
                   &Run);
}

/// `pec explain <rules-file> [rule-name] [--dot FILE]`: re-proves the
/// rules and renders a full diagnosis for every failure. Exits 0 when each
/// requested rule was either proved or diagnosed; nonzero only on usage,
/// parse, or I/O errors (the command's job is explaining failures, so a
/// failing rule is its normal input).
int cmdExplain(const std::string &Path, const std::string &RuleName,
               const std::string &DotPath, const OutputOptions &Opts) {
  std::string Source;
  if (!readFile(Path, Source))
    return 1;
  Expected<RuleFile> File = parseRuleFile(Source);
  if (!File) {
    std::fprintf(stderr, "parse error: %s\n", File.error().str().c_str());
    return 1;
  }
  PecOptions Options;
  Options.UserFacts = File->Facts;
  Options.Diagnose = true;

  FILE *Out = Opts.humanStream();
  std::vector<RuleReport> Reports;
  bool Found = false;
  bool DotWritten = false;
  for (const Rule &R : File->Rules) {
    if (!RuleName.empty() && R.Name != RuleName)
      continue;
    Found = true;
    PecResult Result = proveRule(R, Options);
    if (Result.Proved) {
      std::fprintf(Out,
                   "rule %s: PROVED (%s, %llu ATP queries, %.3fs) — nothing "
                   "to explain\n",
                   R.Name.c_str(),
                   Result.UsedPermute ? "permute" : "bisimulation",
                   static_cast<unsigned long long>(Result.AtpQueries),
                   Result.Seconds);
    } else if (Result.Diagnosis) {
      std::fprintf(Out, "%s",
                   renderDiagnosis(*Result.Diagnosis, R.Name).c_str());
    } else {
      std::fprintf(Out, "rule %s: NOT PROVED [%s]: %s\n", R.Name.c_str(),
                   failureKindName(Result.Kind),
                   Result.FailureReason.c_str());
    }
    if (!Result.Proved && !DotPath.empty() && !DotWritten &&
        Result.Diagnosis && !Result.Diagnosis->Dot.empty()) {
      std::ofstream DotOut(DotPath);
      if (!DotOut) {
        std::fprintf(stderr, "error: cannot write '%s'\n", DotPath.c_str());
        return 1;
      }
      DotOut << Result.Diagnosis->Dot;
      DotWritten = true;
      std::fprintf(Out, "  correlation graph written to %s\n",
                   DotPath.c_str());
    }
    Reports.push_back({R.Name, std::move(Result)});
  }
  if (!Found) {
    std::fprintf(stderr, "error: no rule named '%s' in '%s'\n",
                 RuleName.c_str(), Path.c_str());
    return 1;
  }
  return finishRun(Opts, "explain", Reports, 0);
}

/// `pec report diff <old> <new> [tolerance flags]`: compares two report
/// documents; exit 1 signals a regression (the check_bench_regression
/// gate), exit 2 a usage/parse/validation error.
int cmdReportDiff(const std::string &OldPath, const std::string &NewPath,
                  const ReportDiffOptions &Options) {
  std::string OldText, NewText;
  if (!readFile(OldPath, OldText) || !readFile(NewPath, NewText))
    return 2;
  std::string Error;
  json::ValuePtr Old = json::parse(OldText, &Error);
  if (!Old) {
    std::fprintf(stderr, "error: %s: %s\n", OldPath.c_str(), Error.c_str());
    return 2;
  }
  json::ValuePtr New = json::parse(NewText, &Error);
  if (!New) {
    std::fprintf(stderr, "error: %s: %s\n", NewPath.c_str(), Error.c_str());
    return 2;
  }
  if (!validateReport(Old, &Error)) {
    std::fprintf(stderr, "error: %s: %s\n", OldPath.c_str(), Error.c_str());
    return 2;
  }
  if (!validateReport(New, &Error)) {
    std::fprintf(stderr, "error: %s: %s\n", NewPath.c_str(), Error.c_str());
    return 2;
  }
  ReportDiff D = diffReports(Old, New, Options);
  std::printf("%s", renderReportDiff(D).c_str());
  return D.hasRegression() ? 1 : 0;
}

/// `pec report timeline <journal> [--json]`: reconstructs the causal DAG
/// from a `--journal` run and prints the critical path, per-rule wall/CPU
/// attribution, scheduler utilization, and wasted-work accounting. Exit 1
/// signals a structurally invalid journal, exit 2 an I/O or parse error.
int cmdReportTimeline(const std::string &Path, bool JsonOut) {
  std::string Text;
  if (!readFile(Path, Text))
    return 2;
  std::string Error;
  timeline::Journal J;
  if (!timeline::parseJournal(Text, J, &Error)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
    return 2;
  }
  if (!timeline::validateJournal(J, &Error)) {
    std::fprintf(stderr, "error: %s: invalid journal: %s\n", Path.c_str(),
                 Error.c_str());
    return 1;
  }
  timeline::TimelineAnalysis A = timeline::analyzeTimeline(J);
  std::string Doc =
      JsonOut ? timeline::renderTimelineJson(A) : timeline::renderTimelineText(A);
  std::fwrite(Doc.data(), 1, Doc.size(), stdout);
  return 0;
}

int cmdApply(const std::string &RulesPath, const std::string &ProgramPath,
             bool Fixpoint, bool AssumePositive, bool Staged) {
  std::string RuleSource, ProgramSource;
  if (!readFile(RulesPath, RuleSource) ||
      !readFile(ProgramPath, ProgramSource))
    return 1;
  Expected<RuleFile> File = parseRuleFile(RuleSource);
  if (!File) {
    std::fprintf(stderr, "rule parse error: %s\n",
                 File.error().str().c_str());
    return 1;
  }
  Expected<StmtPtr> Program = parseProgram(ProgramSource);
  if (!Program) {
    std::fprintf(stderr, "program parse error: %s\n",
                 Program.error().str().c_str());
    return 1;
  }

  EngineOptions Options;
  if (AssumePositive)
    Options.Oracle = [](const std::string &Fact,
                        const std::vector<std::string> &) {
      return Fact == "StrictlyPositive";
    };
  PecOptions ProveOptions;
  ProveOptions.UserFacts = File->Facts;

  StmtPtr Current = *Program;
  bool Any = true;
  int Rounds = 0;
  while (Any && Rounds++ < (Fixpoint ? 64 : 1)) {
    Any = false;
    for (const Rule &R : File->Rules) {
      if (Staged) {
        // Sec. 2.3's staged paradigm: unproven rules fall back to
        // run-time translation validation of each application.
        StagedResult Out = applyRuleStaged(Current, R, pickFirst, Options);
        if (Out.Changed)
          std::fprintf(stderr, "applied %s%s\n", R.Name.c_str(),
                       Out.ValidatedAtRuntime ? " (validated at run time)"
                                              : "");
        Any |= Out.Changed;
        Current = Out.Program;
        continue;
      }
      // Rules must be proved before the engine will run them.
      PecResult Proof = proveRule(R, ProveOptions);
      if (!Proof.Proved) {
        std::fprintf(stderr, "refusing to apply unproven rule '%s': %s\n",
                     R.Name.c_str(), Proof.FailureReason.c_str());
        return 1;
      }
      EngineOptions RuleOptions = Options;
      RuleOptions.RequiredDeadVars = Proof.RequiredDeadVars;
      bool Changed = false;
      Current = applyRule(Current, R, pickFirst, RuleOptions, Changed);
      Any |= Changed;
      if (Changed)
        std::fprintf(stderr, "applied %s\n", R.Name.c_str());
    }
  }
  std::printf("%s", printStmt(Current).c_str());
  return 0;
}

int cmdTv(const std::string &OrigPath, const std::string &TransPath,
          const OutputOptions &Opts) {
  std::string OrigSource, TransSource;
  if (!readFile(OrigPath, OrigSource) || !readFile(TransPath, TransSource))
    return 1;
  Expected<StmtPtr> Orig = parseProgram(OrigSource);
  Expected<StmtPtr> Trans = parseProgram(TransSource);
  if (!Orig || !Trans) {
    std::fprintf(stderr, "parse error: %s\n",
                 (!Orig ? Orig.error() : Trans.error()).str().c_str());
    return 1;
  }
  PecOptions Options;
  Options.Atp.QueryBudgetMs = Opts.QueryBudgetMs;
  PecResult R = proveEquivalence(*Orig, *Trans, Options);
  int Exit;
  if (R.Proved) {
    std::fprintf(Opts.humanStream(), "EQUIVALENT (%llu ATP queries, %.3fs)\n",
                 static_cast<unsigned long long>(R.AtpQueries), R.Seconds);
    Exit = 0;
  } else {
    std::fprintf(Opts.humanStream(), "NOT PROVEN EQUIVALENT: %s\n",
                 R.FailureReason.c_str());
    Exit = 1;
  }
  std::vector<RuleReport> Reports;
  Reports.push_back({OrigPath + " vs " + TransPath, std::move(R)});
  return finishRun(Opts, "tv", Reports, Exit);
}

int cmdInterp(const std::string &Path,
              const std::vector<std::string> &Assignments) {
  std::string Source;
  if (!readFile(Path, Source))
    return 1;
  Expected<StmtPtr> Program = parseProgram(Source);
  if (!Program) {
    std::fprintf(stderr, "parse error: %s\n",
                 Program.error().str().c_str());
    return 1;
  }
  State Init;
  for (const std::string &A : Assignments) {
    // Forms: var=value or array[index]=value.
    size_t EqPos = A.find('=');
    if (EqPos == std::string::npos) {
      std::fprintf(stderr, "error: bad assignment '%s' (want var=value)\n",
                   A.c_str());
      return 2;
    }
    std::string Lhs = A.substr(0, EqPos);
    int64_t Value = std::strtoll(A.c_str() + EqPos + 1, nullptr, 10);
    size_t Bracket = Lhs.find('[');
    if (Bracket == std::string::npos) {
      Init.setScalar(Symbol::get(Lhs), Value);
    } else {
      std::string Array = Lhs.substr(0, Bracket);
      int64_t Index = std::strtoll(Lhs.c_str() + Bracket + 1, nullptr, 10);
      Init.setArrayElem(Symbol::get(Array), Index, Value);
    }
  }
  ExecResult R = run(*Program, Init);
  if (R.ok()) {
    std::printf("final state: %s\n", R.Final.str().c_str());
    return 0;
  }
  std::printf("trap (%s): %s\n", execStatusName(R.Status),
              R.TrapDetail.c_str());
  return 1;
}

int cmdCfg(const std::string &Path) {
  std::string Source;
  if (!readFile(Path, Source))
    return 1;
  Expected<StmtPtr> Program = parseProgram(Source);
  if (!Program) {
    std::fprintf(stderr, "parse error: %s\n",
                 Program.error().str().c_str());
    return 1;
  }
  std::printf("%s", Cfg::build(*Program).str().c_str());
  return 0;
}

/// `pec fuzz`: the scenario factory (docs/FUZZING.md). Exit 0 when the
/// campaign is clean, 1 on soundness divergences / crashes / corpus
/// replay failures, 2 on usage errors.
int cmdFuzz(std::vector<std::string> Args) {
  fuzz::DiffOptions Diff;
  uint64_t MutateIterations = 0;
  std::string RulesPath, CorpusDir, ReplayDir, SummaryPath;
  bool AppendScenarios = false;
  uint64_t ReplayBudgetMs = 5000;

  auto NeedValue = [&](size_t I, const char *Flag) {
    if (I + 1 < Args.size())
      return true;
    std::fprintf(stderr, "error: %s requires a value\n", Flag);
    return false;
  };
  auto ParseU64 = [](const std::string &Text, uint64_t &Out) {
    char *End = nullptr;
    long long N = std::strtoll(Text.c_str(), &End, 10);
    if (!End || *End != '\0' || N < 0)
      return false;
    Out = static_cast<uint64_t>(N);
    return true;
  };

  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    uint64_t U = 0;
    if (A == "--seed" || A == "--programs" || A == "--states" ||
        A == "--max-sites" || A == "--fuel" || A == "--jobs" ||
        A == "--query-budget-ms" || A == "--mutate-rules" ||
        A == "--max-stmts") {
      if (!NeedValue(I, A.c_str()) || !ParseU64(Args[I + 1], U)) {
        std::fprintf(stderr, "error: bad %s value\n", A.c_str());
        return 2;
      }
      if (A == "--seed")
        Diff.Seed = U;
      else if (A == "--programs")
        Diff.Programs = U;
      else if (A == "--states")
        Diff.StatesPerApplication = static_cast<uint32_t>(U);
      else if (A == "--max-sites")
        Diff.MaxSitesPerRule = static_cast<uint32_t>(U);
      else if (A == "--max-stmts")
        Diff.Gen.MaxStmts = static_cast<uint32_t>(U);
      else if (A == "--fuel")
        Diff.Fuel = U;
      else if (A == "--jobs")
        Diff.Jobs = U == 0 ? ThreadPool::hardwareJobs()
                           : static_cast<unsigned>(U);
      else if (A == "--query-budget-ms") {
        Diff.QueryBudgetMs = U;
        ReplayBudgetMs = U;
      } else
        MutateIterations = U;
      ++I;
    } else if (A == "--allow-div") {
      Diff.Gen.AllowDiv = true;
    } else if (A == "--assume-proved") {
      Diff.AssumeProved = true;
    } else if (A == "--no-minimize") {
      Diff.MinimizeFindings = false;
    } else if (A == "--append-scenarios") {
      AppendScenarios = true;
    } else if (A == "--corpus-dir") {
      if (!NeedValue(I, "--corpus-dir"))
        return 2;
      CorpusDir = Args[++I];
    } else if (A == "--replay-corpus") {
      if (!NeedValue(I, "--replay-corpus"))
        return 2;
      ReplayDir = Args[++I];
    } else if (A == "--summary-json") {
      if (!NeedValue(I, "--summary-json"))
        return 2;
      SummaryPath = Args[++I];
    } else if (!A.empty() && A[0] != '-' && RulesPath.empty()) {
      RulesPath = A;
    } else {
      std::fprintf(stderr, "error: unknown fuzz argument '%s'\n", A.c_str());
      return 2;
    }
  }

  // Replay mode: re-check every committed scenario and crash reproducer.
  if (!ReplayDir.empty()) {
    size_t Replayed = 0;
    std::vector<std::string> Failures =
        fuzz::replayCorpusDir(ReplayDir, Replayed);
    for (const std::string &F : Failures)
      std::fprintf(stderr, "corpus FAIL: %s\n", F.c_str());
    std::printf("corpus: %zu artifact(s) replayed, %zu failure(s)\n",
                Replayed, Failures.size());
    return Failures.empty() ? 0 : 1;
  }

  if (RulesPath.empty()) {
    std::fprintf(stderr, "error: pec fuzz needs a rules file "
                         "(or --replay-corpus DIR)\n");
    return 2;
  }
  std::string Source;
  if (!readFile(RulesPath, Source))
    return 1;
  Expected<RuleFile> File = parseRuleFile(Source);
  if (!File) {
    std::fprintf(stderr, "parse error: %s\n", File.error().str().c_str());
    return 1;
  }

  fuzz::DiffSummary Summary = fuzz::runDifferential(*File, Diff);

  std::printf("rules: %llu proved, %llu rejected\n",
              static_cast<unsigned long long>(Summary.RulesProved),
              static_cast<unsigned long long>(Summary.RulesRejected));
  std::printf("programs generated:  %llu\n",
              static_cast<unsigned long long>(Summary.ProgramsGenerated));
  std::printf("match sites:         %llu\n",
              static_cast<unsigned long long>(Summary.MatchSites));
  std::printf("applications tested: %llu\n",
              static_cast<unsigned long long>(Summary.Applications));
  std::printf("states run:          %llu\n",
              static_cast<unsigned long long>(Summary.StatesRun));
  std::printf("agreements:          %llu (+%llu both-trapped, "
              "%llu inconclusive)\n",
              static_cast<unsigned long long>(Summary.Agreements),
              static_cast<unsigned long long>(Summary.BothTrapped),
              static_cast<unsigned long long>(Summary.Inconclusive));
  std::printf("divergences:         %llu (%llu on proved rules)\n",
              static_cast<unsigned long long>(Summary.Divergences),
              static_cast<unsigned long long>(Summary.SoundnessBugs));
  for (const fuzz::DiffFinding &F : Summary.Findings) {
    std::fprintf(stderr, "\n%s on rule '%s' (state %s):\n  %s\n",
                 F.RuleProved ? "SOUNDNESS BUG" : "confirmed divergence",
                 F.RuleName.c_str(), F.StateText.c_str(), F.Detail.c_str());
    std::fprintf(stderr, "--- original ---\n%s--- optimized ---\n%s",
                 F.Original.c_str(), F.Optimized.c_str());
    if (AppendScenarios && !CorpusDir.empty() && !F.RuleProved) {
      fuzz::Scenario S;
      S.RuleName = F.RuleName;
      S.RuleText = F.RuleText;
      S.Original = F.Original;
      S.Optimized = F.Optimized;
      S.StateText = F.StateText;
      std::string Path = fuzz::appendScenario(CorpusDir, S);
      if (!Path.empty())
        std::fprintf(stderr, "scenario saved: %s\n", Path.c_str());
    }
  }

  // Soundness bugs always fail; under --assume-proved every divergence is
  // treated as one (the planted-unsound CI check asserts this exit).
  int Exit =
      !Summary.clean() || (Diff.AssumeProved && Summary.Divergences > 0) ? 1
                                                                         : 0;

  // The mutational rule-file campaign, when requested.
  if (MutateIterations > 0) {
    fuzz::RuleFuzzOptions RF;
    RF.Seed = Diff.Seed;
    RF.Iterations = MutateIterations;
    RF.SeedInputs.push_back(Source);
    RF.CorpusDir = CorpusDir.empty() ? "fuzz-corpus" : CorpusDir;
    RF.QueryBudgetMs = ReplayBudgetMs == 0 ? 500 : ReplayBudgetMs;
#if defined(__unix__) || defined(__APPLE__)
    RF.ProveSubprocess = true;
    RF.SelfExe = "/proc/self/exe";
#endif
    fuzz::RuleFuzzSummary M = fuzz::fuzzRuleFiles(RF);
    std::printf("rule mutants:        %llu (%llu parsed, %llu rejected, "
                "%llu crashes)\n",
                static_cast<unsigned long long>(M.Iterations),
                static_cast<unsigned long long>(M.ParsedOk),
                static_cast<unsigned long long>(M.ParseErrors),
                static_cast<unsigned long long>(M.Crashes));
    for (const std::string &P : M.CrashFiles)
      std::fprintf(stderr, "crash reproducer saved: %s\n", P.c_str());
    if (M.Crashes > 0)
      Exit = 1;
  }

  if (!SummaryPath.empty()) {
    std::string Json = fuzz::summaryJson(Summary);
    if (SummaryPath == "-") {
      std::printf("%s\n", Json.c_str());
    } else {
      std::ofstream Out(SummaryPath, std::ios::binary | std::ios::trunc);
      Out << Json << "\n";
      if (!Out) {
        std::fprintf(stderr, "error: cannot write %s\n", SummaryPath.c_str());
        return 2;
      }
    }
  }
  return Exit;
}

//===----------------------------------------------------------------------===//
// serve / client
//===----------------------------------------------------------------------===//

int cmdServe(const std::vector<std::string> &Args) {
  serve::ServeOptions Opts;
  for (size_t I = 1; I < Args.size(); ++I) {
    auto needValue = [&](const char *Flag) -> bool {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "error: %s requires a value\n", Flag);
        return false;
      }
      return true;
    };
    if (Args[I] == "--socket") {
      if (!needValue("--socket"))
        return 2;
      Opts.SocketPath = Args[++I];
    } else if (Args[I] == "--jobs") {
      if (!needValue("--jobs"))
        return 2;
      Opts.Jobs = static_cast<unsigned>(std::strtoul(Args[++I].c_str(),
                                                     nullptr, 10));
    } else if (Args[I] == "--cache-dir") {
      if (!needValue("--cache-dir"))
        return 2;
      Opts.CacheDir = Args[++I];
    } else if (Args[I] == "--max-queue") {
      if (!needValue("--max-queue"))
        return 2;
      Opts.MaxQueue = static_cast<unsigned>(std::strtoul(Args[++I].c_str(),
                                                         nullptr, 10));
    } else if (Args[I] == "--checkpoint-every") {
      if (!needValue("--checkpoint-every"))
        return 2;
      Opts.CheckpointEvery = static_cast<unsigned>(
          std::strtoul(Args[++I].c_str(), nullptr, 10));
    } else if (Args[I] == "--query-budget-ms") {
      if (!needValue("--query-budget-ms"))
        return 2;
      Opts.QueryBudgetMs = std::strtoull(Args[++I].c_str(), nullptr, 10);
    } else {
      return usage();
    }
  }
  if (Opts.SocketPath.empty()) {
    std::fprintf(stderr, "error: pec serve needs --socket PATH\n");
    return 2;
  }
  return serve::runServer(Opts);
}

/// Builds the request frame for one client verb; empty on a usage error.
std::string clientRequestJson(const std::vector<std::string> &Verb) {
  auto fileField = [](const char *Key, const std::string &Path,
                      std::string &Out) -> bool {
    std::string Text;
    if (!readFile(Path, Text))
      return false;
    Out += ",\"";
    Out += Key;
    Out += "\":\"";
    Out += escapeJson(Text);
    Out += '"';
    return true;
  };
  if (Verb.empty())
    return std::string();
  std::string Out = "{\"verb\":\"" + Verb[0] + "\"";
  if (Verb[0] == "prove" || Verb[0] == "explain") {
    if (Verb.size() != 2 || !fileField("rules", Verb[1], Out))
      return std::string();
  } else if (Verb[0] == "apply") {
    if (Verb.size() < 3 || !fileField("rules", Verb[1], Out) ||
        !fileField("program", Verb[2], Out))
      return std::string();
    for (size_t I = 3; I < Verb.size(); ++I) {
      if (Verb[I] == "--fixpoint")
        Out += ",\"fixpoint\":true";
      else
        return std::string();
    }
  } else if (Verb[0] == "ping") {
    if (Verb.size() > 2)
      return std::string();
    if (Verb.size() == 2)
      Out += ",\"sleep_ms\":" + Verb[1];
  } else if (Verb[0] == "stats" || Verb[0] == "shutdown") {
    if (Verb.size() != 1)
      return std::string();
  } else {
    std::fprintf(stderr, "error: unknown client verb '%s'\n",
                 Verb[0].c_str());
    return std::string();
  }
  Out += '}';
  return Out;
}

int cmdClient(const std::vector<std::string> &Args) {
  std::string SocketPath;
  std::vector<std::string> Verb;
  for (size_t I = 1; I < Args.size(); ++I) {
    if (Args[I] == "--socket") {
      if (I + 1 >= Args.size()) {
        std::fprintf(stderr, "error: --socket requires a value\n");
        return 2;
      }
      SocketPath = Args[++I];
    } else {
      Verb.push_back(Args[I]);
    }
  }
  if (SocketPath.empty() || Verb.empty())
    return usage();
  std::string Request = clientRequestJson(Verb);
  if (Request.empty())
    return 2;
  std::string Reply, Error;
  if (!serve::clientRequest(SocketPath, Request, Reply, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("%s\n", Reply.c_str());
  // Exit nonzero on an unsuccessful reply so shell pipelines can gate on
  // it (`pec client ... || retry`).
  json::ValuePtr Parsed = json::parse(Reply);
  json::ValuePtr Ok = Parsed ? Parsed->get("ok") : nullptr;
  return Ok && Ok->isBool() && Ok->boolValue() ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  flight::installSignalHandlers();
  std::vector<std::string> Args(argv + 1, argv + argc);
  if (Args.empty())
    return usage();
  const std::string Cmd = Args[0];

  OutputOptions Output;
  if (Cmd == "prove" || Cmd == "prove-suite" || Cmd == "tv" ||
      Cmd == "explain") {
    if (!parseOutputOptions(Args, Output))
      return 2;
  }

  if (Cmd == "prove" && Args.size() == 2)
    return cmdProve(Args[1], Output);
  if (Cmd == "prove-suite" && Args.size() == 1)
    return cmdProveSuite(Output);
  if (Cmd == "explain" && Args.size() >= 2) {
    std::string RuleName, DotPath;
    for (size_t I = 2; I < Args.size(); ++I) {
      if (Args[I] == "--dot") {
        if (I + 1 >= Args.size()) {
          std::fprintf(stderr, "error: --dot requires a file name\n");
          return 2;
        }
        DotPath = Args[++I];
      } else if (RuleName.empty() && Args[I][0] != '-') {
        RuleName = Args[I];
      } else {
        return usage();
      }
    }
    return cmdExplain(Args[1], RuleName, DotPath, Output);
  }
  if (Cmd == "report" && Args.size() >= 4 && Args[1] == "diff") {
    ReportDiffOptions DiffOpts;
    std::vector<std::pair<const char *, double *>> DoubleFlags = {
        {"--time-tolerance", &DiffOpts.TimeToleranceFactor},
        {"--time-slack", &DiffOpts.TimeSlackSeconds},
        {"--query-tolerance", &DiffOpts.QueryToleranceFactor},
        {"--strengthening-time-tolerance",
         &DiffOpts.StrengtheningTimeToleranceFactor},
        {"--strengthening-query-tolerance",
         &DiffOpts.StrengtheningQueryToleranceFactor},
        {"--p50-tolerance", &DiffOpts.P50ToleranceFactor},
        {"--p99-tolerance", &DiffOpts.P99ToleranceFactor},
        {"--min-hit-rate", &DiffOpts.MinHitRate},
    };
    std::vector<std::pair<const char *, uint64_t *>> UintFlags = {
        {"--query-slack", &DiffOpts.QuerySlack},
        {"--strengthening-time-slack-us",
         &DiffOpts.StrengtheningTimeSlackMicros},
        {"--strengthening-query-slack", &DiffOpts.StrengtheningQuerySlack},
        {"--p50-slack-us", &DiffOpts.P50SlackMicros},
        {"--p99-slack-us", &DiffOpts.P99SlackMicros},
    };
    for (size_t I = 4; I < Args.size(); ++I) {
      bool Matched = false;
      for (auto &[Flag, Slot] : DoubleFlags) {
        if (Args[I] == Flag) {
          if (I + 1 >= Args.size()) {
            std::fprintf(stderr, "error: %s requires a value\n", Flag);
            return 2;
          }
          *Slot = std::strtod(Args[++I].c_str(), nullptr);
          Matched = true;
          break;
        }
      }
      if (Matched)
        continue;
      for (auto &[Flag, Slot] : UintFlags) {
        if (Args[I] == Flag) {
          if (I + 1 >= Args.size()) {
            std::fprintf(stderr, "error: %s requires a value\n", Flag);
            return 2;
          }
          *Slot = std::strtoull(Args[++I].c_str(), nullptr, 10);
          Matched = true;
          break;
        }
      }
      if (Matched)
        continue;
      return usage();
    }
    return cmdReportDiff(Args[2], Args[3], DiffOpts);
  }
  if (Cmd == "report" && Args.size() >= 3 && Args[1] == "timeline") {
    bool JsonOut = false;
    for (size_t I = 3; I < Args.size(); ++I) {
      if (Args[I] == "--json")
        JsonOut = true;
      else
        return usage();
    }
    return cmdReportTimeline(Args[2], JsonOut);
  }
  if (Cmd == "apply" && Args.size() >= 3) {
    bool Fixpoint = false, AssumePositive = false, Staged = false;
    for (size_t I = 3; I < Args.size(); ++I) {
      if (Args[I] == "--fixpoint")
        Fixpoint = true;
      else if (Args[I] == "--assume-positive")
        AssumePositive = true;
      else if (Args[I] == "--staged")
        Staged = true;
      else
        return usage();
    }
    return cmdApply(Args[1], Args[2], Fixpoint, AssumePositive, Staged);
  }
  if (Cmd == "serve")
    return cmdServe(Args);
  if (Cmd == "client")
    return cmdClient(Args);
  if (Cmd == "tv" && Args.size() == 3)
    return cmdTv(Args[1], Args[2], Output);
  if (Cmd == "cfg" && Args.size() == 2)
    return cmdCfg(Args[1]);
  if (Cmd == "interp" && Args.size() >= 2)
    return cmdInterp(Args[1],
                     std::vector<std::string>(Args.begin() + 2, Args.end()));
  if (Cmd == "fuzz" && Args.size() >= 2)
    return cmdFuzz(std::vector<std::string>(Args.begin() + 1, Args.end()));
  return usage();
}
