//===- prove_loop.cpp - Closed-loop proving benchmark ---------------------===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload in one process, in a closed loop, for a fixed time:
//
//   figure11    the 19 rules of figure11Suite(), proved one after another
//               with no cache, as `pec prove-suite` does;
//   rejections  the 12 unsound rules of rejections.rules, proved one after
//               another with diagnosis on, as `pec prove` does;
//   parallel    the figure11 rules as `pec prove-suite --jobs 3` runs
//               them: a fresh ThreadPool(3) plus the helping caller and a
//               fresh shared AtpCache per pass.
//
// Each pass first sets the workload up (reads and parses the rule texts;
// on `parallel` also creates the pool and the cache), then proves every
// rule in an order shuffled by the seed. Every verdict is checked against
// the rule's known answer, and every exact work count against the rule's
// first pass. After each pass a calibration kernel is timed, and the
// end-to-end timings are stated at a reference machine speed (see
// ReferenceKernelSeconds). It calls only public entry points (the
// parse functions, proveRule, ThreadPool/TaskGroup, AtpCache) and reads
// the phase times and solver counters proveRule returns.
//
// With --trace 1, passes alternate between traced and untraced. A traced
// pass records setup, pass and rule spans in memory; they are written to
// the --spans file at exit, and the per-layer metrics come from the traced
// passes. The untraced passes give the end-to-end metrics and the tracing
// overhead.
//
// Output: one JSON object on stdout with the metrics, the per-rule exact
// counts of the first pass (run.py compares them across runs), the
// attempted/failed verdict counts and the errors found. A human summary
// and every error go to stderr.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "opts/Optimizations.h"
#include "pec/Pec.h"
#include "solver/AtpCache.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <array>
#include <barrier>
#include <charconv>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <memory_resource>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace pec;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Rule costs span 0.1 ms to 10 s, so a verdict within this limit is the
/// bounded-rejection target a user can rely on.
constexpr double DecideLimitSeconds = 0.5;

/// Setups before each pass (the pass proves the last one's rules), and
/// calibration samples after it. One setup takes about 0.3 ms, and a
/// `rejections` run has only about three passes, so one sample per pass
/// would give too few.
constexpr unsigned SamplesPerPass = 5;

/// The end-to-end timings are stated at a reference machine speed. On a
/// shared VM the same proof runs up to 1.8x slower in one minute than in
/// another with identical work counts, so each run also times a fixed
/// calibration kernel (calibrationSample, independent of the program) and
/// scales its wall times by ReferenceKernelSeconds over the kernel's
/// median time in the run. Raw wall times are reported beside them.
constexpr double ReferenceKernelSeconds = 0.0016;

/// Threads of the `parallel` workload: pool workers plus the caller, which
/// helps inside TaskGroup::wait().
constexpr unsigned PoolWorkers = 3;

/// A negative rule (CSE without its stability condition) that
/// --plant-wrong-verdict places in the positive set.
constexpr const char *PlantedNegative = R"(rule planted_bad_cse {
      X := E; L1: S1; Y := E;
    } => {
      X := E; S1; Y := X;
    } where DoesNotModify(S1, X) @ L1 && DoesNotUse(E, X) @ L1)";

//===----------------------------------------------------------------------===//
// Exact counts
//===----------------------------------------------------------------------===//

/// The per-rule work counts that must repeat exactly across passes, runs,
/// seeds and between traced and untraced runs. Cache counts are not here:
/// on `parallel` they depend on thread scheduling.
enum Count : size_t {
  Queries,
  RelationEntries,
  PathPairs,
  PrunedPathPairs,
  Strengthenings,
  PermuteQueries,
  PathPruningQueries,
  ObligationQueries,
  StrengtheningQueries,
  MinimizeQueries,
  SatClosed,
  Enodes,
  Decisions,
  Propagations,
  Conflicts,
  TheoryChecks,
  TheoryConflicts,
  TheoryPropagations,
  LearnedClauses,
  BudgetExhausted,
  NumCounts
};

constexpr std::array<const char *, NumCounts> CountNames = {
    "atp_queries",
    "pec.relation_entries",
    "pec.path_pairs",
    "pec.pruned_path_pairs",
    "pec.strengthenings",
    "solver.permute_condition.queries",
    "solver.path_pruning.queries",
    "solver.obligation.queries",
    "solver.strengthening.queries",
    "solver.minimize.queries",
    "solver.saturate.closed",
    "solver.saturate.enodes",
    "solver.dpllt.decisions",
    "solver.dpllt.propagations",
    "solver.dpllt.conflicts",
    "solver.dpllt.theory_checks",
    "solver.dpllt.theory_conflicts",
    "solver.dpllt.theory_propagations",
    "solver.dpllt.learned_clauses",
    "solver.budget_exhausted",
};

using Counts = std::array<uint64_t, NumCounts>;

uint64_t purposeQueries(const AtpStats &S, telemetry::Purpose P) {
  return S.ByPurpose[static_cast<size_t>(P)].Queries;
}

Counts countsOf(const PecResult &R) {
  using telemetry::Purpose;
  const AtpStats &S = R.Atp;
  Counts C{};
  C[Queries] = R.AtpQueries;
  C[RelationEntries] = R.RelationSize;
  C[PathPairs] = R.PathPairs;
  C[PrunedPathPairs] = R.PrunedPathPairs;
  C[Strengthenings] = R.Strengthenings;
  C[PermuteQueries] = purposeQueries(S, Purpose::PermuteCondition);
  C[PathPruningQueries] = purposeQueries(S, Purpose::PathPruning);
  C[ObligationQueries] = purposeQueries(S, Purpose::Obligation);
  C[StrengtheningQueries] = purposeQueries(S, Purpose::Strengthening);
  C[MinimizeQueries] = purposeQueries(S, Purpose::Minimize);
  C[SatClosed] = S.SatClosed;
  C[Enodes] = S.EgraphNodes;
  C[Decisions] = S.SatDecisions;
  C[Propagations] = S.Propagations;
  C[Conflicts] = S.SatConflicts;
  C[TheoryChecks] = S.TheoryChecks;
  C[TheoryConflicts] = S.TheoryConflicts;
  C[TheoryPropagations] = S.TheoryPropagations;
  C[LearnedClauses] = S.LearnedClauses;
  C[BudgetExhausted] = S.BudgetExhausted;
  return C;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Expectation {
  bool Proved = false;
  bool Permute = false; ///< Paper's "Uses permute" column; proved rules only.
};

struct Workload {
  std::string Name;
  bool Parallel = false;
  /// Rule texts with their known answers, parsed one by one.
  std::vector<std::pair<std::string, Expectation>> Texts;
  /// A rule file whose rules must all be rejected (empty: none).
  std::string RejectFile;

  unsigned threads() const { return Parallel ? PoolWorkers + 1 : 1; }
};

/// What one pass's setup produced. Destroying it joins the pool.
struct Setup {
  std::vector<Rule> Rules;
  std::unique_ptr<AtpCache> Cache;
  std::unique_ptr<ThreadPool> Pool;
  double ParseSeconds = 0;
  double Seconds = 0;
};

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

[[noreturn]] void fail(const std::string &Message) {
  std::fprintf(stderr, "perfbench: error: %s\n", Message.c_str());
  std::exit(2);
}

Setup setUp(const Workload &W) {
  Setup S;
  auto Start = Clock::now();
  for (const auto &[Text, Expect] : W.Texts) {
    Expected<Rule> R = parseRule(Text);
    if (!R)
      fail("parse error: " + R.error().str());
    S.Rules.push_back(R.take());
  }
  if (!W.RejectFile.empty()) {
    std::string Source;
    if (!readFile(W.RejectFile, Source))
      fail("cannot read " + W.RejectFile);
    Expected<RuleFile> File = parseRuleFile(Source);
    if (!File)
      fail(W.RejectFile + ": " + File.error().str());
    for (Rule &R : File->Rules)
      S.Rules.push_back(std::move(R));
  }
  S.ParseSeconds = secondsBetween(Start, Clock::now());
  if (W.Parallel) {
    S.Cache = std::make_unique<AtpCache>();
    S.Pool = std::make_unique<ThreadPool>(PoolWorkers);
  }
  S.Seconds = secondsBetween(Start, Clock::now());
  return S;
}

//===----------------------------------------------------------------------===//
// Records
//===----------------------------------------------------------------------===//

/// One proveRule call, as the benchmark saw it and as PecResult reports it.
struct RuleRun {
  size_t Rule = 0;  ///< Index into Setup::Rules.
  double Start = 0; ///< Seconds since the pass started.
  double End = 0;
  std::thread::id Thread;
  bool Proved = false;
  bool UsedPermute = false;
  std::string FailureReason;
  double Seconds = 0; ///< PecResult phase clocks.
  double PermuteSeconds = 0;
  double CorrelateSeconds = 0;
  double CheckSeconds = 0;
  double SolverSeconds = 0; ///< AtpStats clocks.
  double SaturateSeconds = 0;
  std::array<double, telemetry::NumPurposes> PurposeSeconds{};
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  Counts Work{};

  double duration() const { return End - Start; }
};

void fill(RuleRun &Run, const PecResult &R) {
  Run.Proved = R.Proved;
  Run.UsedPermute = R.UsedPermute;
  Run.FailureReason = R.FailureReason;
  Run.Seconds = R.Seconds;
  Run.PermuteSeconds = R.PermuteSeconds;
  Run.CorrelateSeconds = R.CorrelateSeconds;
  Run.CheckSeconds = R.CheckSeconds;
  Run.SolverSeconds = R.Atp.Microseconds * 1e-6;
  Run.SaturateSeconds = R.Atp.SaturateRebuildMicros * 1e-6;
  for (size_t P = 0; P < telemetry::NumPurposes; ++P)
    Run.PurposeSeconds[P] = R.Atp.ByPurpose[P].Microseconds * 1e-6;
  Run.CacheHits = R.Atp.CacheHits;
  Run.CacheMisses = R.Atp.CacheMisses;
  Run.Work = countsOf(R);
}

/// What a checked pass leaves behind. Kept small, so that the benchmark's own
/// records do not grow the peak memory it reports.
struct Pass {
  bool Traced = false;
  std::vector<double> SetupSeconds;
  std::vector<double> KernelSeconds; ///< Calibration, after the pass.
  double Seconds = 0;              ///< Until the last verdict was in.
  std::vector<double> RuleSeconds; ///< Time to verdict, by rule index.
  std::vector<double> Layers;      ///< Traced passes: per-layer values.
};

/// A span of the benchmark's own code, kept in memory until exit.
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0: root.
  const char *Name = "";
  unsigned Thread = 0; ///< 0: the calling thread.
  double Start = 0;    ///< Seconds since the benchmark started.
  double End = 0;
  std::string Args; ///< Rendered JSON members.
};

//===----------------------------------------------------------------------===//
// Statistics and rendering
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out + "\"";
}

/// Shortest text that reads back as exactly \p V: measured values are
/// printed with all their digits.
std::string jsonNumber(double V) {
  char Buf[32];
  return std::string(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  size_t Samples = 0; ///< For the stderr summary.
};

/// Peak resident memory of this process image so far. getrusage's
/// ru_maxrss is not used: Linux carries it over exec from the parent.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  fail("no VmHWM in /proc/self/status");
}

/// splitmix64: a portable seeded order, identical on every standard
/// library (std::shuffle's is not).
uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

void shuffle(std::vector<size_t> &Order, uint64_t &State) {
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[splitmix64(State) % I]);
}

volatile uint64_t KernelSink = 0;

/// Wall time of a fixed piece of work shaped like the prover's (node
/// allocation and pointer chasing in a std::map), about 1.5 ms. Of the
/// kernels tried it tracked the VM's speed best: across 12 runs of
/// `figure11` it halved the spread of the median pass time. Its nodes come
/// from \p Buffer, so the state the program leaves in the heap cannot
/// change the kernel's time.
double calibrationKernel(std::vector<std::byte> &Buffer) {
  auto Start = Clock::now();
  std::pmr::monotonic_buffer_resource Arena(Buffer.data(), Buffer.size(),
                                            std::pmr::null_memory_resource());
  std::pmr::map<uint64_t, uint64_t> M(&Arena);
  uint64_t State = 1, Sum = 0;
  for (uint64_t I = 0; I < 6000; ++I)
    M[splitmix64(State) % 20000] = I;
  for (int I = 0; I < 3000; ++I)
    M.erase(splitmix64(State) % 20000);
  for (const auto &[K, V] : M)
    Sum += K * V;
  KernelSink = Sum;
  return secondsBetween(Start, Clock::now());
}

/// One calibration sample on as many threads as the workload runs: one
/// kernel, or on `parallel` one kernel per thread of the pass, started
/// together, averaging their times. With all four vCPUs busy the VM loses
/// the most time to the hypervisor (25-30% steal on each, against about
/// 10% with one busy), which a single-threaded kernel does not see.
double calibrationSample(unsigned Threads) {
  static std::vector<std::vector<std::byte>> Buffers(
      PoolWorkers + 1, std::vector<std::byte>(1 << 20));
  if (Threads == 1)
    return calibrationKernel(Buffers[0]);
  std::vector<double> Times(Threads);
  std::barrier Ready(static_cast<std::ptrdiff_t>(Threads));
  auto Run = [&](unsigned I) {
    Ready.arrive_and_wait();
    Times[I] = calibrationKernel(Buffers[I]);
  };
  std::vector<std::thread> Others;
  for (unsigned I = 1; I < Threads; ++I)
    Others.emplace_back(Run, I);
  Run(0);
  for (std::thread &T : Others)
    T.join();
  double Sum = 0;
  for (double T : Times)
    Sum += T;
  return Sum / Threads;
}

/// One traced pass's per-layer values, summed over its rules. Every `_s`
/// value comes from the program's own clocks in PecResult and AtpStats.
std::vector<Metric> layerMetrics(const std::vector<RuleRun> &Runs,
                                 double ParseSeconds, double PassSeconds,
                                 const AtpCacheStats &Cache, double Threads) {
  using telemetry::Purpose;
  std::vector<Metric> Out;
  auto Sum = [&Runs](auto Field) {
    double S = 0;
    for (const RuleRun &R : Runs)
      S += Field(R);
    return S;
  };
  auto Seconds = [&](const char *Name, auto Field) {
    Out.push_back({Name, Sum(Field), "s"});
  };
  auto WorkOf = [](Count C) {
    return [C](const RuleRun &R) { return static_cast<double>(R.Work[C]); };
  };
  auto Work = [&](Count C) {
    Out.push_back({CountNames[C], Sum(WorkOf(C)), "count"});
  };
  auto InPurpose = [](Purpose P) {
    return [P](const RuleRun &R) {
      return R.PurposeSeconds[static_cast<size_t>(P)];
    };
  };
  auto Share = [&](const char *Name, double Part, double Whole) {
    Out.push_back({Name, Whole ? Part / Whole : 0, "share"});
  };

  Out.push_back({"lang.parse_s", ParseSeconds, "s"});
  Seconds("pec.rule_self_s", [](const RuleRun &R) {
    return R.Seconds - R.PermuteSeconds - R.CorrelateSeconds - R.CheckSeconds;
  });
  Seconds("pec.permute_s", [](const RuleRun &R) { return R.PermuteSeconds; });
  Work(PermuteQueries);
  Seconds("solver.permute_condition.s", InPurpose(Purpose::PermuteCondition));
  Seconds("pec.correlate_s",
          [](const RuleRun &R) { return R.CorrelateSeconds; });
  Work(RelationEntries);
  Seconds("pec.check_s", [](const RuleRun &R) { return R.CheckSeconds; });
  // The check phase minus the solver time it spent: every query outside
  // Permute is the Checker's. On `parallel` the solver time is summed over
  // the threads that ran the rule's waves, so this is no self time there.
  Seconds("pec.check_self_s", [&](const RuleRun &R) {
    return R.CheckSeconds - R.SolverSeconds +
           InPurpose(Purpose::PermuteCondition)(R);
  });
  Work(PathPairs);
  Work(PrunedPathPairs);
  Work(Strengthenings);
  Work(PathPruningQueries);
  Seconds("solver.path_pruning.s", InPurpose(Purpose::PathPruning));
  Work(ObligationQueries);
  Seconds("solver.obligation.s", InPurpose(Purpose::Obligation));
  Work(StrengtheningQueries);
  Seconds("solver.strengthening.s", InPurpose(Purpose::Strengthening));
  Work(MinimizeQueries);
  Seconds("solver.minimize.s", InPurpose(Purpose::Minimize));
  Seconds("solver.busy_s", [](const RuleRun &R) { return R.SolverSeconds; });
  Work(SatClosed);
  Share("solver.saturate.closed_share", Sum(WorkOf(SatClosed)),
        Sum(WorkOf(Queries)));
  Work(Enodes);
  Seconds("solver.saturate.s",
          [](const RuleRun &R) { return R.SaturateSeconds; });
  for (Count C : {Decisions, Propagations, Conflicts, TheoryChecks,
                  TheoryConflicts, TheoryPropagations, LearnedClauses,
                  BudgetExhausted})
    Work(C);
  // Whole-pass cache totals: zero without a cache, and not exact on
  // `parallel`, where they depend on thread scheduling.
  Out.push_back({"solver.cache.hits", static_cast<double>(Cache.Hits),
                 "count"});
  Out.push_back({"solver.cache.misses", static_cast<double>(Cache.Misses),
                 "count"});
  Out.push_back({"solver.cache.hit_rate", Cache.hitRate(), "share"});
  Out.push_back({"solver.cache.waits", static_cast<double>(Cache.Waits),
                 "count"});
  double Slowest = 0;
  for (const RuleRun &R : Runs)
    Slowest = std::max(Slowest, R.duration());
  Share("support.pool.busy_share",
        Sum([](const RuleRun &R) { return R.duration(); }),
        Threads * PassSeconds);
  Share("support.pool.critical_share", Slowest, PassSeconds);
  return Out;
}

//===----------------------------------------------------------------------===//
// The benchmark
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string RejectFile;
  std::string SpansPath;
  bool PlantWrongVerdict = false;
  bool FalsifyCount = false;
};

class Bench {
public:
  Bench(Options Opts, Workload W)
      : Opts(std::move(Opts)), W(std::move(W)), Origin(Clock::now()) {}

  void run();
  void report() const;
  bool writeSpans() const;

private:
  Pass runPass(size_t Index, const std::vector<size_t> &Order);
  void check(size_t Index, std::vector<RuleRun> &Runs);
  void recordSpans(const std::vector<RuleRun> &Runs, const Setup &S,
                   const Pass &P, Clock::time_point SetupStart,
                   Clock::time_point PassStart);
  void error(const std::string &Message);
  Metric calibration() const;
  std::vector<Metric> wallClock() const;
  std::vector<Metric> endToEnd() const;
  std::vector<Metric> perLayer() const;
  std::vector<const Pass *> passes(bool Traced) const;
  std::vector<double> ruleMedians() const;

  double since(Clock::time_point T) const { return secondsBetween(Origin, T); }

  Options Opts;
  Workload W;
  Clock::time_point Origin;
  std::vector<Expectation> Expect; ///< Per rule, in setup order.
  std::vector<std::string> Names;
  std::vector<Pass> Passes;
  std::vector<Counts> FirstWork; ///< Per rule, from the first pass.
  /// Peak memory once the first pass is done, as one `pec prove` process
  /// holds it. Later passes are not counted: every thread the program
  /// ever ran keeps its flight-recorder ring and metrics shard, so on
  /// `parallel`, with a fresh pool per pass, memory grows with the number
  /// of passes, which depends on the machine's speed.
  double FirstPassRssMb = 0;
  std::vector<Metric> Layers;    ///< Names and units of Pass::Layers.
  std::vector<Span> Spans;
  uint64_t NextSpanId = 1;
  uint64_t Attempted = 0;
  uint64_t Wrong = 0;
  std::vector<std::string> Errors;
  size_t SuppressedErrors = 0;
};

void Bench::error(const std::string &Message) {
  // Every error fails the run; only the first few are spelled out.
  if (Errors.size() >= 20) {
    ++SuppressedErrors;
    return;
  }
  std::fprintf(stderr, "perfbench: %s\n", Message.c_str());
  Errors.push_back(Message);
}

void Bench::run() {
  {
    Setup Probe = setUp(W);
    for (const Rule &R : Probe.Rules) {
      if (std::find(Names.begin(), Names.end(), R.Name) != Names.end())
        fail("duplicate rule name " + R.Name);
      Names.push_back(R.Name);
    }
    for (const auto &[Text, E] : W.Texts)
      Expect.push_back(E);
    Expect.resize(Names.size(), Expectation{});
  }

  uint64_t RngState = Opts.Seed;
  std::vector<size_t> Order(Names.size());
  auto Deadline =
      Origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(Opts.Seconds));
  // A traced run needs at least one traced and one untraced pass.
  while (Clock::now() < Deadline || Passes.size() < (Opts.Trace ? 2u : 1u)) {
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    shuffle(Order, RngState);
    Passes.push_back(runPass(Passes.size(), Order));
  }
}

Pass Bench::runPass(size_t Index, const std::vector<size_t> &Order) {
  Pass P;
  P.Traced = Opts.Trace && Index % 2 == 0;
  Setup S;
  Clock::time_point SetupStart;
  for (unsigned I = 0; I < SamplesPerPass; ++I) {
    SetupStart = Clock::now();
    S = setUp(W);
    P.SetupSeconds.push_back(S.Seconds);
  }
  if (S.Rules.size() != Names.size())
    fail("rule count changed between setups");

  PecOptions Options;
  Options.Cache = S.Cache.get();
  Options.Pool = S.Pool.get();
  std::vector<RuleRun> Runs(Order.size());
  auto PassStart = Clock::now();
  auto Prove = [&](size_t K) {
    RuleRun &Run = Runs[K];
    Run.Rule = Order[K];
    Run.Thread = std::this_thread::get_id();
    Run.Start = secondsBetween(PassStart, Clock::now());
    PecResult R = proveRule(S.Rules[Order[K]], Options);
    Run.End = secondsBetween(PassStart, Clock::now());
    fill(Run, R);
  };
  if (S.Pool) {
    TaskGroup Group(*S.Pool);
    for (size_t K = 0; K < Order.size(); ++K)
      Group.spawn([&Prove, K] { Prove(K); });
    Group.wait();
  } else {
    for (size_t K = 0; K < Order.size(); ++K)
      Prove(K);
  }
  P.Seconds = secondsBetween(PassStart, Clock::now());

  check(Index, Runs);
  if (Index == 0)
    FirstPassRssMb = peakRssMb();
  for (unsigned I = 0; I < SamplesPerPass; ++I)
    P.KernelSeconds.push_back(calibrationSample(W.threads()));
  P.RuleSeconds.resize(Names.size());
  for (const RuleRun &Run : Runs)
    P.RuleSeconds[Run.Rule] = Run.duration();
  if (P.Traced) {
    recordSpans(Runs, S, P, SetupStart, PassStart);
    Layers = layerMetrics(Runs, S.ParseSeconds, P.Seconds,
                          S.Cache ? S.Cache->stats() : AtpCacheStats{},
                          W.threads());
    for (const Metric &M : Layers)
      P.Layers.push_back(M.Value);
  }
  return P;
}

void Bench::check(size_t Index, std::vector<RuleRun> &Runs) {
  if (Opts.FalsifyCount && Index == 1)
    ++Runs.front().Work[Decisions];
  if (Index == 0)
    FirstWork.resize(Names.size());
  for (const RuleRun &Run : Runs) {
    const Expectation &E = Expect[Run.Rule];
    const std::string &Name = Names[Run.Rule];
    ++Attempted;
    if (Run.Proved != E.Proved) {
      ++Wrong;
      error("wrong verdict: rule " + Name + " expected " +
            (E.Proved ? "proved" : "rejected") + ", got " +
            (Run.Proved ? "proved"
                        : "rejected (" + Run.FailureReason + ")"));
    } else if (E.Proved && Run.UsedPermute != E.Permute) {
      ++Wrong;
      error("wrong verdict: rule " + Name + " expected proof " +
            (E.Permute ? "with" : "without") + " Permute, got " +
            (Run.UsedPermute ? "with" : "without"));
    }
    if (Index == 0) {
      FirstWork[Run.Rule] = Run.Work;
      continue;
    }
    for (size_t C = 0; C < NumCounts; ++C)
      if (Run.Work[C] != FirstWork[Run.Rule][C])
        error("exact-count mismatch: " + std::string(CountNames[C]) +
              " of rule " + Name + " is " + std::to_string(Run.Work[C]) +
              " in pass " + std::to_string(Index + 1) + " but " +
              std::to_string(FirstWork[Run.Rule][C]) + " in pass 1");
  }
}

void Bench::recordSpans(const std::vector<RuleRun> &Runs, const Setup &S,
                        const Pass &P, Clock::time_point SetupStart,
                        Clock::time_point PassStart) {
  double Base = since(PassStart);
  Spans.push_back({NextSpanId++, 0, "setup", 0, since(SetupStart),
                   since(SetupStart) + S.Seconds,
                   "\"parse_s\":" + jsonNumber(S.ParseSeconds)});
  uint64_t PassId = NextSpanId++;
  Spans.push_back({PassId, 0, "pass", 0, Base, Base + P.Seconds,
                   "\"rules\":" + std::to_string(Runs.size())});
  // Threads are numbered per pass in order of first appearance; the
  // calling thread (which helps in TaskGroup::wait) is 0.
  std::vector<std::thread::id> Threads = {std::this_thread::get_id()};
  for (const RuleRun &Run : Runs) {
    auto It = std::find(Threads.begin(), Threads.end(), Run.Thread);
    unsigned Thread = static_cast<unsigned>(It - Threads.begin());
    if (It == Threads.end())
      Threads.push_back(Run.Thread);
    std::string Args = "\"rule\":" + jsonString(Names[Run.Rule]) +
                       ",\"verdict\":" +
                       (Run.Proved ? "\"proved\"" : "\"rejected\"") +
                       ",\"used_permute\":" +
                       (Run.UsedPermute ? "true" : "false");
    auto Real = [&Args](const std::string &Key, double V) {
      Args += ",\"" + Key + "\":" + jsonNumber(V);
    };
    Real("pec.rule_s", Run.Seconds);
    Real("pec.permute_s", Run.PermuteSeconds);
    Real("pec.correlate_s", Run.CorrelateSeconds);
    Real("pec.check_s", Run.CheckSeconds);
    Real("solver.busy_s", Run.SolverSeconds);
    Real("solver.saturate.s", Run.SaturateSeconds);
    for (size_t Pu = 0; Pu < telemetry::NumPurposes; ++Pu)
      Real(std::string("solver.") +
               telemetry::purposeName(static_cast<telemetry::Purpose>(Pu)) +
               ".s",
           Run.PurposeSeconds[Pu]);
    Args += ",\"solver.cache.hits\":" + std::to_string(Run.CacheHits) +
            ",\"solver.cache.misses\":" + std::to_string(Run.CacheMisses);
    for (size_t C = 0; C < NumCounts; ++C)
      Args += std::string(",\"") + CountNames[C] +
              "\":" + std::to_string(Run.Work[C]);
    Spans.push_back({NextSpanId++, PassId, "rule", Thread, Base + Run.Start,
                     Base + Run.End, std::move(Args)});
  }
}

bool Bench::writeSpans() const {
  if (Opts.SpansPath.empty())
    return true;
  std::ofstream Out(Opts.SpansPath);
  Out << "{\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << (I ? ",\n" : "\n") << "{\"name\":\"" << S.Name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << S.Thread
        << ",\"ts\":" << jsonNumber(S.Start * 1e6)
        << ",\"dur\":" << jsonNumber((S.End - S.Start) * 1e6)
        << ",\"args\":{\"id\":" << S.Id << ",\"parent\":" << S.Parent;
    if (!S.Args.empty())
      Out << "," << S.Args;
    Out << "}}";
  }
  Out << "\n]}\n";
  Out.close();
  return static_cast<bool>(Out);
}

std::vector<const Pass *> Bench::passes(bool Traced) const {
  std::vector<const Pass *> Out;
  for (const Pass &P : Passes)
    if (P.Traced == Traced)
      Out.push_back(&P);
  return Out;
}

/// Each rule's median time to verdict over the untraced passes.
std::vector<double> Bench::ruleMedians() const {
  std::vector<std::vector<double>> Times(Names.size());
  for (const Pass *P : passes(false))
    for (size_t R = 0; R < Names.size(); ++R)
      Times[R].push_back(P->RuleSeconds[R]);
  std::vector<double> Out;
  for (const std::vector<double> &T : Times)
    Out.push_back(median(T));
  return Out;
}

/// The calibration kernel's median time over the run.
Metric Bench::calibration() const {
  std::vector<double> Kernels;
  for (const Pass &P : Passes)
    Kernels.insert(Kernels.end(), P.KernelSeconds.begin(),
                   P.KernelSeconds.end());
  return {"bench.calibration_s", median(Kernels), "s", Kernels.size()};
}

/// The four end-to-end timings of the untraced passes, unscaled.
std::vector<Metric> Bench::wallClock() const {
  std::vector<const Pass *> Untraced = passes(false);
  std::vector<double> Setups, Suites;
  for (const Pass *P : Untraced) {
    Setups.insert(Setups.end(), P->SetupSeconds.begin(),
                  P->SetupSeconds.end());
    Suites.push_back(P->Seconds);
  }
  std::vector<double> RuleMedians = ruleMedians();
  size_t N = Untraced.size();
  return {
      {"bench.wall.setup_s", median(Setups), "s", Setups.size()},
      {"bench.wall.suite_s", median(Suites), "s", N},
      {"bench.wall.rule_p50_s", median(RuleMedians), "s", N},
      {"bench.wall.slowest_rule_s",
       *std::max_element(RuleMedians.begin(), RuleMedians.end()), "s", N},
  };
}

std::vector<Metric> Bench::endToEnd() const {
  uint64_t Verdicts = 0, Decided = 0;
  for (const Pass *P : passes(false))
    for (double T : P->RuleSeconds) {
      ++Verdicts;
      Decided += T <= DecideLimitSeconds;
    }
  uint64_t Queries = 0;
  for (const Counts &C : FirstWork)
    Queries += C[Count::Queries];

  // The four timings at the reference speed (see ReferenceKernelSeconds).
  std::vector<Metric> Wall = wallClock();
  double Scale = ReferenceKernelSeconds / calibration().Value;
  auto Scaled = [&](size_t I) {
    return Metric{Wall[I].Name.substr(sizeof("bench.wall.") - 1),
                  Scale * Wall[I].Value, "s", Wall[I].Samples};
  };
  return {
      Scaled(0),
      Scaled(1),
      Scaled(2),
      Scaled(3),
      // A deadline the user waits for: raw wall time.
      {"decided_within_0.5s",
       static_cast<double>(Decided) / static_cast<double>(Verdicts), "share",
       Verdicts},
      {"right_verdict_share",
       static_cast<double>(Attempted - Wrong) / static_cast<double>(Attempted),
       "share", Attempted},
      {"atp_queries", static_cast<double>(Queries), "count", 1},
      {"peak_rss_mb", FirstPassRssMb, "MB", 1},
  };
}

std::vector<Metric> Bench::perLayer() const {
  std::vector<const Pass *> Traced = passes(true);
  std::vector<Metric> Out = Layers;
  for (size_t I = 0; I < Out.size(); ++I) {
    std::vector<double> V;
    for (const Pass *P : Traced)
      V.push_back(P->Layers[I]);
    Out[I].Value = median(V);
    Out[I].Samples = V.size();
  }
  std::vector<double> TracedSuite, UntracedSuite;
  for (const Pass &P : Passes)
    (P.Traced ? TracedSuite : UntracedSuite).push_back(P.Seconds);
  Out.push_back({"bench.trace_overhead_s",
                 median(TracedSuite) - median(UntracedSuite), "s",
                 TracedSuite.size()});
  std::vector<Metric> Wall = wallClock();
  Out.insert(Out.end(), Wall.begin(), Wall.end());
  Out.push_back(calibration());
  return Out;
}

void Bench::report() const {
  std::vector<Metric> Metrics = endToEnd();
  std::vector<Metric> More = Opts.Trace ? perLayer() : wallClock();
  if (!Opts.Trace)
    More.push_back(calibration());
  Metrics.insert(Metrics.end(), More.begin(), More.end());

  std::fprintf(stderr, "perfbench: %s, seed %llu: %zu passes (%zu traced)\n",
               W.Name.c_str(), static_cast<unsigned long long>(Opts.Seed),
               Passes.size(), passes(true).size());
  for (const Metric &M : Metrics)
    std::fprintf(stderr, "  %-36s %14.6g %-6s (%zu samples)\n",
                 M.Name.c_str(), M.Value, M.Unit.c_str(), M.Samples);
  std::vector<double> PerRule = ruleMedians();
  for (size_t R = 0; R < Names.size(); ++R)
    std::fprintf(stderr, "  rule %-31s %14.6g s      (median), %llu queries\n",
                 Names[R].c_str(), PerRule[R],
                 static_cast<unsigned long long>(FirstWork[R][Queries]));

  std::string Out = "{\"workload\":" + jsonString(W.Name) +
                    ",\"passes\":" + std::to_string(Passes.size()) +
                    ",\"attempted\":" + std::to_string(Attempted) +
                    ",\"failed\":" + std::to_string(Wrong) + ",\"errors\":[";
  std::vector<std::string> All = Errors;
  if (SuppressedErrors)
    All.push_back(std::to_string(SuppressedErrors) + " more errors");
  for (size_t I = 0; I < All.size(); ++I)
    Out += (I ? "," : "") + jsonString(All[I]);
  Out += "],\"metrics\":{";
  for (size_t I = 0; I < Metrics.size(); ++I)
    Out += (I ? "," : "") + jsonString(Metrics[I].Name) +
           ":{\"value\":" + jsonNumber(Metrics[I].Value) +
           ",\"unit\":" + jsonString(Metrics[I].Unit) + "}";
  Out += "},\"exact\":{";
  for (size_t R = 0; R < Names.size(); ++R) {
    Out += (R ? "," : "") + jsonString(Names[R]) + ":{";
    for (size_t C = 0; C < NumCounts; ++C)
      Out += (C ? ",\"" : "\"") + std::string(CountNames[C]) +
             "\":" + std::to_string(FirstWork[R][C]);
    Out += "}";
  }
  Out += "}}\n";
  std::fwrite(Out.data(), 1, Out.size(), stdout);
}

Workload makeWorkload(const Options &Opts) {
  Workload W;
  W.Name = Opts.Workload;
  if (W.Name == "rejections") {
    if (Opts.RejectFile.empty())
      fail("--reject-file is required for the rejections workload");
    W.RejectFile = Opts.RejectFile;
    if (Opts.PlantWrongVerdict)
      W.Texts.push_back({figure11Suite().front().RuleText, {false, false}});
    return W;
  }
  if (W.Name != "figure11" && W.Name != "parallel")
    fail("unknown workload '" + W.Name + "'");
  W.Parallel = W.Name == "parallel";
  for (const OptEntry &Entry : figure11Suite()) {
    W.Texts.push_back({Entry.RuleText, {true, Entry.UsesPermute}});
    for (const std::string &Extra : Entry.ExtraRuleTexts)
      W.Texts.push_back({Extra, {true, Entry.UsesPermute}});
  }
  if (Opts.PlantWrongVerdict)
    W.Texts.push_back({PlantedNegative, {true, false}});
  return W;
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        fail("missing value for " + A);
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Value().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = Value() != "0";
    else if (A == "--reject-file")
      O.RejectFile = Value();
    else if (A == "--spans")
      O.SpansPath = Value();
    else if (A == "--plant-wrong-verdict")
      O.PlantWrongVerdict = true;
    else if (A == "--falsify-count")
      O.FalsifyCount = true;
    else
      fail("unknown argument '" + A + "'");
  }
  if (O.Workload.empty())
    fail("--workload is required");
  if (!(O.Seconds > 0))
    fail("--seconds must be positive");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts = parseArgs(Argc, Argv);
  Workload W = makeWorkload(Opts);
  Bench B(Opts, std::move(W));
  B.run();
  if (!B.writeSpans())
    fail("cannot write spans to " + Opts.SpansPath);
  B.report();
  return 0;
}
