//===- trace_journal_test.cpp - Causal run-journal well-formedness --------===//
//
// The acceptance bar for pec::trace (docs/OBSERVABILITY.md): journals
// written under a work-stealing `--jobs N` run must be structurally
// well-formed — every end matches a begin, every parent exists and was
// begun earlier, the parent relation is acyclic, intervals nest — and
// `pec report timeline` must reconstruct them into a critical path no
// longer than wall-clock. All checks are deterministic and structural
// (no raw-timing comparisons), so the suite is stable under TSan.
//
//===----------------------------------------------------------------------===//

#include "pec/Timeline.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

using namespace pec;
using namespace pec::timeline;

namespace {

std::string readAll(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string tempPath(const char *Name) {
  const char *Dir = ::getenv("TMPDIR");
  return std::string(Dir && *Dir ? Dir : "/tmp") + "/" + Name + "-" +
         std::to_string(::getpid()) + ".jsonl";
}

/// Structural invariants shared by every journal test: parse, validate,
/// and check the critical path against the journal's own wall-clock.
void expectWellFormed(const std::string &Text, Journal &J) {
  std::string Error;
  ASSERT_TRUE(parseJournal(Text, J, &Error)) << Error;
  EXPECT_TRUE(validateJournal(J, &Error)) << Error;
  TimelineAnalysis A = analyzeTimeline(J);
  EXPECT_LE(A.CriticalPathUs, A.WallUs);
  EXPECT_LE(A.Utilization, 1.0);
  EXPECT_LE(A.BusyUs, A.Threads * A.WallUs);
}

//===----------------------------------------------------------------------===//
// In-process: the trace layer itself, under the work-stealing pool.
//===----------------------------------------------------------------------===//

TEST(TraceJournal, PoolRunIsWellFormed) {
  std::string Path = tempPath("trace-pool");
  ASSERT_TRUE(trace::journalOpen(Path));
  {
    trace::Span Root("run");
    Root.attr("jobs", static_cast<uint64_t>(4));
    ThreadPool Pool(4);
    TaskGroup Group(Pool);
    for (int R = 0; R < 8; ++R)
      Group.spawn([&Pool, R] {
        trace::Span Rule("rule");
        Rule.attr("rule", "r" + std::to_string(R));
        // A nested wave fanning out to the same pool: the inner tasks
        // must adopt the wave as their causal parent across threads.
        trace::Span Wave("wave");
        Wave.attr("wave", static_cast<uint64_t>(0));
        TaskGroup Inner(Pool);
        for (int O = 0; O < 4; ++O)
          Inner.spawn([O] {
            trace::Span Ob("obligation");
            Ob.attr("obligation", static_cast<uint64_t>(O));
            trace::instant("core_skip", "obligation", std::to_string(O));
          });
        Inner.wait();
        Rule.attr("proved", "yes");
      });
    Group.wait();
  }
  trace::journalClose();

  Journal J;
  expectWellFormed(readAll(Path), J);
  std::remove(Path.c_str());

  // 1 run + 8 rules + 8 waves + 32 obligations.
  EXPECT_EQ(J.Spans.size(), 49u);
  size_t Obligations = 0;
  for (const JournalSpan &S : J.Spans) {
    if (S.Name == "obligation")
      ++Obligations;
    if (S.Name == "run")
      EXPECT_EQ(S.Parent, 0u);
    else
      EXPECT_NE(S.Parent, 0u); // Everything else hangs off the run span.
  }
  EXPECT_EQ(Obligations, 32u);
  EXPECT_EQ(J.Instants.size(), 32u);

  TimelineAnalysis A = analyzeTimeline(J);
  EXPECT_EQ(A.Rules.size(), 8u);
  EXPECT_EQ(A.CoreSkips, 32u);
  for (const RuleAttribution &R : A.Rules) {
    EXPECT_TRUE(R.Proved) << R.Rule;
    EXPECT_EQ(R.Obligations, 4u) << R.Rule;
  }
}

TEST(TraceJournal, DisabledLayerWritesNothing) {
  // No journalOpen: spans must be inert (and record no ids).
  trace::Span S("rule");
  EXPECT_EQ(S.id(), 0u);
  EXPECT_EQ(trace::current().SpanId, 0u);
}

//===----------------------------------------------------------------------===//
// Handcrafted journals: exact analysis numbers and rejected corruptions.
//===----------------------------------------------------------------------===//

const std::string Header = "{\"schema\":\"pec-journal-v1\",\"start_us\":0}\n";

/// Two rules under one run; rule b owns a query with a single-flight
/// wait, a strengthening re-check, and instants. Times are chosen so
/// every analysis quantity below is exact.
std::string handcrafted() {
  return Header +
         R"({"ev":"b","ts":0,"trace":1,"span":1,"parent":0,"tid":1,"name":"run"}
{"ev":"b","ts":10,"trace":1,"span":2,"parent":1,"tid":2,"name":"rule"}
{"ev":"b","ts":10,"trace":1,"span":3,"parent":1,"tid":3,"name":"rule"}
{"ev":"b","ts":20,"trace":1,"span":4,"parent":3,"tid":3,"name":"atp.query"}
{"ev":"b","ts":30,"trace":1,"span":5,"parent":4,"tid":3,"name":"cache.wait"}
{"ev":"i","ts":35,"span":4,"tid":3,"name":"core_skip","obligation":"1"}
{"ev":"e","ts":40,"span":5}
{"ev":"e","ts":80,"span":4,"purpose":"obligation","cache":"miss"}
{"ev":"e","ts":60,"span":2,"rule":"a","proved":"yes"}
{"ev":"b","ts":81,"trace":1,"span":6,"parent":3,"tid":3,"name":"obligation"}
{"ev":"e","ts":85,"span":6,"kind":"strengthen-recheck","obligation":"2"}
{"ev":"i","ts":86,"span":3,"tid":3,"name":"strengthen","entry":"0,0"}
{"ev":"e","ts":90,"span":3,"rule":"b","proved":"no"}
{"ev":"e","ts":100,"span":1,"jobs":"2","rules":"2"}
)";
}

TEST(TraceJournal, HandcraftedAnalysisIsExact) {
  Journal J;
  expectWellFormed(handcrafted(), J);
  TimelineAnalysis A = analyzeTimeline(J);

  EXPECT_EQ(A.WallUs, 100u);
  EXPECT_EQ(A.Jobs, 2u);
  EXPECT_EQ(A.Threads, 3u);
  EXPECT_EQ(A.Spans, 6u);
  EXPECT_EQ(A.Queries, 1u);

  // CP(run) = excl(run) + max(CP(rule a), CP(rule b))
  //         = 0 + max(50, 16 + 50 + 10) = 76, through the query's wait.
  EXPECT_EQ(A.CriticalPathUs, 76u);
  ASSERT_EQ(A.CriticalPath.size(), 4u);
  EXPECT_EQ(A.CriticalPath[0].Name, "run");
  EXPECT_EQ(A.CriticalPath[1].Name, "rule");
  EXPECT_EQ(A.CriticalPath[1].Detail, "b");
  EXPECT_EQ(A.CriticalPath[2].Name, "atp.query");
  EXPECT_EQ(A.CriticalPath[3].Name, "cache.wait");

  // Rule attribution, sorted by wall descending: b (80) then a (50).
  ASSERT_EQ(A.Rules.size(), 2u);
  EXPECT_EQ(A.Rules[0].Rule, "b");
  EXPECT_EQ(A.Rules[0].WallUs, 80u);
  // Self times on tid 3: rule b 16, query 50 (60 minus the 10us wait),
  // re-check 4; the wait itself is blocked time, not CPU.
  EXPECT_EQ(A.Rules[0].CpuUs, 70u);
  EXPECT_EQ(A.Rules[0].Queries, 1u);
  EXPECT_EQ(A.Rules[0].CacheMisses, 1u);
  EXPECT_FALSE(A.Rules[0].Proved);
  EXPECT_EQ(A.Rules[1].Rule, "a");
  EXPECT_EQ(A.Rules[1].WallUs, 50u);
  EXPECT_EQ(A.Rules[1].CpuUs, 50u);
  EXPECT_TRUE(A.Rules[1].Proved);

  // Busy: run 100 + rule a 50 + rule b 16 + query 50 + re-check 4.
  EXPECT_EQ(A.BusyUs, 220u);
  EXPECT_EQ(A.IdleUs, 3u * 100u - 220u);

  EXPECT_EQ(A.CacheWaits, 1u);
  EXPECT_EQ(A.CacheWaitUs, 10u);
  EXPECT_EQ(A.Rechecks, 1u);
  EXPECT_EQ(A.RecheckUs, 4u);
  EXPECT_EQ(A.CoreSkips, 1u);
  EXPECT_EQ(A.Strengthenings, 1u);

  // Both renderings must carry the headline sections.
  std::string Text = renderTimelineText(A);
  EXPECT_NE(Text.find("critical path"), std::string::npos);
  EXPECT_NE(Text.find("wasted work"), std::string::npos);
  std::string Json = renderTimelineJson(A);
  EXPECT_NE(Json.find("\"schema\":\"pec-timeline-v1\""), std::string::npos);
  EXPECT_NE(Json.find("\"critical_path_us\":76"), std::string::npos);
}

TEST(TraceJournal, RejectsStructuralCorruption) {
  struct Case {
    const char *Label;
    std::string Text;
    bool ParseFails; // Otherwise the validator must reject it.
  };
  const std::string Run =
      R"({"ev":"b","ts":0,"trace":1,"span":1,"parent":0,"tid":1,"name":"run"})"
      "\n";
  const Case Cases[] = {
      {"missing header",
       R"({"ev":"b","ts":0,"trace":1,"span":1,"parent":0,"tid":1,"name":"x"})"
       "\n",
       true},
      {"end without begin",
       Header + Run + R"({"ev":"e","ts":5,"span":9})" "\n", true},
      {"duplicate end",
       Header + Run + R"({"ev":"e","ts":5,"span":1})" "\n" +
           R"({"ev":"e","ts":6,"span":1})" "\n",
       true},
      {"begin without end", Header + Run, false},
      {"dangling parent",
       Header + Run + R"({"ev":"e","ts":9,"span":1})" "\n" +
           R"({"ev":"b","ts":1,"trace":1,"span":2,"parent":7,"tid":1,"name":"rule"})"
           "\n" +
           R"({"ev":"e","ts":2,"span":2})" "\n",
       false},
      {"parent younger than child (cycle)",
       Header +
           R"({"ev":"b","ts":0,"trace":1,"span":2,"parent":3,"tid":1,"name":"a"})"
           "\n" +
           R"({"ev":"b","ts":1,"trace":1,"span":3,"parent":2,"tid":1,"name":"b"})"
           "\n" +
           R"({"ev":"e","ts":2,"span":3})" "\n" +
           R"({"ev":"e","ts":3,"span":2})" "\n",
       false},
      {"child escapes parent interval",
       Header + Run +
           R"({"ev":"b","ts":5,"trace":1,"span":2,"parent":1,"tid":1,"name":"rule"})"
           "\n" +
           R"({"ev":"e","ts":9,"span":1})" "\n" +
           R"({"ev":"e","ts":12,"span":2})" "\n",
       false},
  };
  for (const Case &C : Cases) {
    Journal J;
    std::string Error;
    bool Parsed = parseJournal(C.Text, J, &Error);
    if (C.ParseFails) {
      EXPECT_FALSE(Parsed) << C.Label;
      continue;
    }
    ASSERT_TRUE(Parsed) << C.Label << ": " << Error;
    EXPECT_FALSE(validateJournal(J, &Error)) << C.Label;
    EXPECT_FALSE(Error.empty()) << C.Label;
  }
}

//===----------------------------------------------------------------------===//
// End to end: a real `--jobs 4 --journal` run through the CLI.
//===----------------------------------------------------------------------===//

bool capture(const std::string &Command, std::string &Out) {
  Out.clear();
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe)
    return false;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Out.append(Buf, N);
  return pclose(Pipe) != -1;
}

TEST(TraceJournal, CliJournalFigure11) {
  std::string Path = tempPath("trace-cli");
  std::string Out;
  ASSERT_TRUE(capture(std::string(PEC_BIN) + " prove " + PEC_RULES_DIR +
                          "/figure11.rules --jobs 4 --journal " + Path +
                          " 2>/dev/null",
                      Out));
  EXPECT_NE(Out.find("journal written to"), std::string::npos);

  Journal J;
  expectWellFormed(readAll(Path), J);
  TimelineAnalysis A = analyzeTimeline(J);
  EXPECT_EQ(A.Jobs, 4u);
  EXPECT_GT(A.Queries, 0u);
  EXPECT_FALSE(A.Rules.empty());
  std::set<std::string> Names;
  for (const RuleAttribution &R : A.Rules) {
    EXPECT_GT(R.Queries, 0u) << R.Rule;
    Names.insert(R.Rule);
  }
  EXPECT_EQ(Names.size(), A.Rules.size()) << "duplicate rule attribution";

  // The report command itself: exit 0 and the headline sections present.
  ASSERT_TRUE(capture(std::string(PEC_BIN) + " report timeline " + Path +
                          " 2>/dev/null",
                      Out));
  EXPECT_NE(Out.find("critical path"), std::string::npos);
  EXPECT_NE(Out.find("per-rule attribution"), std::string::npos);
  EXPECT_NE(Out.find("wasted work"), std::string::npos);
  std::remove(Path.c_str());
}

} // namespace
