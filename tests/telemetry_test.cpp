//===- telemetry_test.cpp - Spans, the Chrome trace, purpose tags --------===//
//
// Covers the span layer as `pec prove --trace` sees it: `trace::Span`s
// recorded into a journal and rendered by `timeline::renderChromeTrace`
// (span nesting, explicit end, JSON escaping of hostile names, disabled-
// mode no-ops, cross-thread flow arrows), purpose tagging, and a
// golden-file check that `pec prove-suite --report json` emits exactly
// the documented pec-report-v6 field set.
//
//===----------------------------------------------------------------------===//

#include "pec/Report.h"
#include "pec/Timeline.h"
#include "support/Escape.h"
#include "support/Json.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

using namespace pec;
namespace tel = pec::telemetry;

namespace {

std::string journalFile() {
  return testing::TempDir() + "/pec_telemetry_test_journal.jsonl";
}

/// Closes the journal the test recorded into (if it opened one), renders
/// it as a Chrome trace, parses that back, and returns its traceEvents
/// array.
json::ValuePtr renderRecorded() {
  trace::journalClose();
  std::string Path = journalFile();
  std::ifstream In(Path);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  std::remove(Path.c_str());
  std::string Text = Buffer.str();
  if (Text.empty()) // Never opened: an empty journal.
    Text = "{\"schema\":\"pec-journal-v1\",\"start_us\":0}\n";
  timeline::Journal J;
  std::string Error;
  EXPECT_TRUE(timeline::parseJournal(Text, J, &Error)) << Error;
  json::ValuePtr Doc = json::parse(timeline::renderChromeTrace(J), &Error);
  EXPECT_TRUE(Doc) << Error;
  if (!Doc)
    return nullptr;
  return Doc->get("traceEvents");
}

json::ValuePtr findEvent(const json::ValuePtr &Events, const std::string &Name,
                         const std::string &Ph = "") {
  for (const json::ValuePtr &E : Events->array())
    if (E->get("name") && E->get("name")->stringValue() == Name &&
        (Ph.empty() || E->get("ph")->stringValue() == Ph))
      return E;
  return nullptr;
}

TEST(TelemetryTest, SpanNestingInChromeTrace) {
  ASSERT_TRUE(trace::journalOpen(journalFile()));
  {
    trace::Span Outer("outer");
    Outer.attr("rule", "loop_fusion");
    {
      trace::Span Inner("inner");
      Inner.attr("depth", uint64_t(2));
    }
    trace::instant("marker", "payload", "payload text");
  }

  json::ValuePtr Events = renderRecorded();
  ASSERT_TRUE(Events && Events->isArray());
  ASSERT_EQ(Events->array().size(), 3u);

  json::ValuePtr Outer = findEvent(Events, "outer");
  json::ValuePtr Inner = findEvent(Events, "inner");
  json::ValuePtr Marker = findEvent(Events, "marker");
  ASSERT_TRUE(Outer && Inner && Marker);

  // Complete events with the Chrome trace required fields.
  for (const json::ValuePtr &E : {Outer, Inner}) {
    EXPECT_EQ(E->get("ph")->stringValue(), "X");
    EXPECT_TRUE(E->get("ts")->isNumber());
    EXPECT_TRUE(E->get("dur")->isNumber());
    EXPECT_TRUE(E->get("pid")->isNumber());
    EXPECT_TRUE(E->get("tid")->isNumber());
  }
  EXPECT_EQ(Marker->get("ph")->stringValue(), "i");

  // Nesting is expressed by interval containment.
  double OuterStart = Outer->get("ts")->numberValue();
  double OuterEnd = OuterStart + Outer->get("dur")->numberValue();
  double InnerStart = Inner->get("ts")->numberValue();
  double InnerEnd = InnerStart + Inner->get("dur")->numberValue();
  EXPECT_GE(InnerStart, OuterStart);
  EXPECT_LE(InnerEnd, OuterEnd);

  // Attrs survive the round trip as args.
  EXPECT_EQ(Outer->get("args")->get("rule")->stringValue(), "loop_fusion");
  EXPECT_EQ(Inner->get("args")->get("depth")->stringValue(), "2");
  EXPECT_EQ(Marker->get("args")->get("payload")->stringValue(),
            "payload text");
}

TEST(TelemetryTest, ExplicitEndClosesSpanEarly) {
  ASSERT_TRUE(trace::journalOpen(journalFile()));
  {
    trace::Span S("early");
    S.end();
    S.end(); // Idempotent.
    trace::Span After("after");
  }
  json::ValuePtr Events = renderRecorded();
  ASSERT_TRUE(Events);
  EXPECT_EQ(Events->array().size(), 2u);
  json::ValuePtr Early = findEvent(Events, "early");
  json::ValuePtr After = findEvent(Events, "after");
  ASSERT_TRUE(Early && After);
  EXPECT_LE(Early->get("ts")->numberValue() + Early->get("dur")->numberValue(),
            After->get("ts")->numberValue());
}

TEST(TelemetryTest, JsonEscapingOfHostileRuleNames) {
  // Rule names flow into span names, attrs, and report fields; hostile
  // characters must not break the JSON documents.
  static const char Hostile[] = "rule\"with\\quotes\nand\tcontrol\x01chars";
  std::string Escaped = escapeJson(Hostile);
  std::string Error;
  json::ValuePtr Back = json::parse("\"" + Escaped + "\"", &Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_EQ(Back->stringValue(), Hostile);

  ASSERT_TRUE(trace::journalOpen(journalFile()));
  {
    trace::Span S(Hostile); // A literal: the flight ring keeps it.
    S.attr("note", Hostile);
  }
  json::ValuePtr Events = renderRecorded();
  ASSERT_TRUE(Events);
  ASSERT_EQ(Events->array().size(), 1u);
  EXPECT_EQ(Events->array()[0]->get("name")->stringValue(), Hostile);
  EXPECT_EQ(Events->array()[0]->get("args")->get("note")->stringValue(),
            Hostile);
}

TEST(TelemetryTest, DisabledModeIsANoOp) {
  ASSERT_FALSE(trace::enabled());
  {
    trace::Span S("invisible");
    S.attr("key", "value");
    trace::instant("nothing");
    EXPECT_EQ(S.id(), 0u);
  }
  json::ValuePtr Events = renderRecorded();
  ASSERT_TRUE(Events);
  EXPECT_TRUE(Events->array().empty());
}

TEST(TelemetryTest, SpanOutlivingDisableIsDropped) {
  // A span begun while no journal was open must not write its end line
  // (an end without a begin) when it ends after the journal opened.
  {
    trace::Span Straddler("straddler");
    ASSERT_TRUE(trace::journalOpen(journalFile()));
  }
  json::ValuePtr Events = renderRecorded();
  ASSERT_TRUE(Events);
  EXPECT_TRUE(Events->array().empty());
}

TEST(TelemetryTest, CrossThreadParentBecomesFlowPair) {
  ASSERT_TRUE(trace::journalOpen(journalFile()));
  {
    trace::Span Parent("parent");
    std::thread Worker([Ctx = trace::current()] {
      trace::Adopt Adopted(Ctx);
      trace::Span Child("child");
    });
    Worker.join();
  }
  json::ValuePtr Events = renderRecorded();
  ASSERT_TRUE(Events);
  json::ValuePtr Parent = findEvent(Events, "parent");
  json::ValuePtr Child = findEvent(Events, "child");
  json::ValuePtr Start = findEvent(Events, "cause", "s");
  json::ValuePtr Finish = findEvent(Events, "cause", "f");
  ASSERT_TRUE(Parent && Child && Start && Finish);
  // The arrow leaves the parent's thread and lands on the child's slice.
  auto Num = [](const json::ValuePtr &E, const char *Key) {
    return E->get(Key)->numberValue();
  };
  EXPECT_EQ(Num(Start, "tid"), Num(Parent, "tid"));
  EXPECT_EQ(Num(Finish, "tid"), Num(Child, "tid"));
  EXPECT_NE(Num(Parent, "tid"), Num(Child, "tid"));
  EXPECT_EQ(Num(Start, "id"), Num(Finish, "id"));
  EXPECT_EQ(Num(Finish, "ts"), Num(Child, "ts"));
}

TEST(TelemetryTest, PurposeScopeNestsAndRestores) {
  using tel::Purpose;
  EXPECT_EQ(tel::currentPurpose(), Purpose::Other);
  {
    tel::PurposeScope Outer(Purpose::Obligation);
    EXPECT_EQ(tel::currentPurpose(), Purpose::Obligation);
    {
      tel::PurposeScope Inner(Purpose::Strengthening);
      EXPECT_EQ(tel::currentPurpose(), Purpose::Strengthening);
    }
    EXPECT_EQ(tel::currentPurpose(), Purpose::Obligation);
  }
  EXPECT_EQ(tel::currentPurpose(), Purpose::Other);

  // Purpose names are the stable by_purpose report keys.
  EXPECT_STREQ(tel::purposeName(Purpose::Other), "other");
  EXPECT_STREQ(tel::purposeName(Purpose::PathPruning), "path-pruning");
  EXPECT_STREQ(tel::purposeName(Purpose::Obligation), "obligation");
  EXPECT_STREQ(tel::purposeName(Purpose::PermuteCondition),
               "permute-condition");
  EXPECT_STREQ(tel::purposeName(Purpose::Strengthening), "strengthening");
  EXPECT_STREQ(tel::purposeName(Purpose::Minimize), "minimize");
}

//===----------------------------------------------------------------------===//
// Report schema golden test
//===----------------------------------------------------------------------===//

/// Collects every field path in \p V ("" root, ".rules[].atp.queries",
/// ...) with its JSON type, array elements collapsed under "[]".
void collectPaths(const json::ValuePtr &V, const std::string &Prefix,
                  std::set<std::string> &Out) {
  const char *KindName[] = {"null", "bool", "number",
                            "string", "array", "object"};
  Out.insert(Prefix + " " + KindName[static_cast<int>(V->kind())]);
  if (V->isObject()) {
    for (const auto &[Key, Member] : V->object())
      collectPaths(Member, Prefix + "." + Key, Out);
  } else if (V->isArray()) {
    for (const json::ValuePtr &Elem : V->array())
      collectPaths(Elem, Prefix + "[]", Out);
  }
}

TEST(ReportSchemaTest, ProveSuiteMatchesGoldenFieldSet) {
  // Run the real CLI and capture the report document.
  std::string Command =
      std::string(PEC_BIN) + " prove-suite --report json 2>/dev/null";
  FILE *Pipe = popen(Command.c_str(), "r");
  ASSERT_TRUE(Pipe != nullptr);
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Text.append(Buf, N);
  ASSERT_EQ(pclose(Pipe), 0) << "pec prove-suite failed";

  std::string Error;
  json::ValuePtr Report = json::parse(Text, &Error);
  ASSERT_TRUE(Report) << Error;

  // The shared validator accepts its own producer.
  EXPECT_TRUE(validateReport(Report, &Error)) << Error;

  // Golden check: the exact field-path set of the document (paths are
  // value-independent, so this is stable across machines and timings).
  std::set<std::string> Paths;
  collectPaths(Report, "", Paths);

  std::ifstream Golden(std::string(PEC_GOLDEN_DIR) +
                       "/report_schema.golden");
  ASSERT_TRUE(Golden.good())
      << "missing tests/golden/report_schema.golden";
  std::set<std::string> Expected;
  std::string Line;
  while (std::getline(Golden, Line))
    if (!Line.empty() && Line[0] != '#')
      Expected.insert(Line);

  for (const std::string &P : Expected)
    EXPECT_TRUE(Paths.count(P)) << "report lost documented field: " << P;
  for (const std::string &P : Paths)
    EXPECT_TRUE(Expected.count(P))
        << "report grew undocumented field: " << P
        << " (update tests/golden/report_schema.golden and "
           "docs/OBSERVABILITY.md)";

  // Spot-check semantic content, not just shape.
  EXPECT_EQ(Report->get("schema")->stringValue(), "pec-report-v6");
  EXPECT_EQ(Report->get("command")->stringValue(), "prove-suite");
  const auto &Rules = Report->get("rules")->array();
  EXPECT_GE(Rules.size(), 19u); // The Figure 11 suite.
  for (const json::ValuePtr &Rule : Rules)
    EXPECT_TRUE(Rule->get("proved")->boolValue())
        << Rule->get("name")->stringValue();
}

TEST(ReportSchemaTest, ValidatorRejectsMalformedReports) {
  std::string Error;

  json::ValuePtr NotObject = json::parse("[1,2]", &Error);
  ASSERT_TRUE(NotObject);
  EXPECT_FALSE(validateReport(NotObject, &Error));

  json::ValuePtr WrongSchema = json::parse(
      R"({"schema":"pec-report-v0","command":"x","rules":[],)"
      R"("totals":{"rules":0,"proved":0,"failed":0,"seconds":0,)"
      R"("atp_queries":0,"atp_microseconds":0}})",
      &Error);
  ASSERT_TRUE(WrongSchema) << Error;
  EXPECT_FALSE(validateReport(WrongSchema, &Error));
  EXPECT_NE(Error.find("schema"), std::string::npos);

  // totals.proved inconsistent with the rules array.
  json::ValuePtr Inconsistent = json::parse(
      R"({"schema":"pec-report-v1","command":"x","rules":[],)"
      R"("totals":{"rules":0,"proved":3,"failed":0,"seconds":0,)"
      R"("atp_queries":0,"atp_microseconds":0}})",
      &Error);
  ASSERT_TRUE(Inconsistent) << Error;
  EXPECT_FALSE(validateReport(Inconsistent, &Error));
}

TEST(ReportSchemaTest, RenderValidateRoundTrip) {
  // renderJsonReport output always satisfies validateReport, including
  // hostile rule names and failed rules.
  std::vector<RuleReport> Rules(2);
  Rules[0].Name = "good \"rule\"";
  Rules[0].Result.Proved = true;
  Rules[0].Result.UsedPermute = true;
  Rules[0].Result.Atp.Queries = 7;
  Rules[0].Result.Atp.ByPurpose[2].Queries = 7;
  Rules[1].Name = "bad\\rule";
  Rules[1].Result.Proved = false;
  Rules[1].Result.FailureReason = "obligation\nfailed";

  std::string Doc = renderJsonReport("unit-test", Rules);
  std::string Error;
  json::ValuePtr Report = json::parse(Doc, &Error);
  ASSERT_TRUE(Report) << Error;
  EXPECT_TRUE(validateReport(Report, &Error)) << Error;
  EXPECT_EQ(Report->get("rules")->array()[0]->get("name")->stringValue(),
            "good \"rule\"");
  EXPECT_EQ(Report->get("totals")->get("proved")->numberValue(), 1);
  EXPECT_EQ(Report->get("totals")->get("failed")->numberValue(), 1);

  // The stats table renders without crashing and mentions both rules.
  std::string Table = renderStatsTable(Rules);
  EXPECT_NE(Table.find("good \"rule\""), std::string::npos);
  EXPECT_NE(Table.find("TOTAL"), std::string::npos);
}

} // namespace
