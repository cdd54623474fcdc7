//===- parallel_determinism_test.cpp - Parallel prover determinism --------------===//
//
// The acceptance bar for pec::parallel (docs/PARALLELISM.md): repeated
// `--jobs 8` runs over figure11.rules and unsound.rules produce
// byte-identical reports modulo timing fields, `--jobs 4` proves exactly
// the rule set `--jobs 1` proves with the same per-rule work counts, and
// the shared ATP cache actually hits. The `--jobs 1` work counts of
// figure11.rules, unsound.rules and negative.rules are also pinned to the
// committed reference tests/golden/rule_counts.golden.
// Everything goes through the CLI so the whole pipeline — scheduler,
// cache, stats replay, report rendering — is under test, not a unit.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>

using namespace pec;

namespace {

/// Runs \p Command, captures stdout. Returns false when popen fails.
bool capture(const std::string &Command, std::string &Out) {
  Out.clear();
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe)
    return false;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Out.append(Buf, N);
  pclose(Pipe); // Exit status intentionally ignored: unsound.rules exits 1.
  return true;
}

std::string proveJson(const std::string &RulesFile, int Jobs) {
  std::string Command = std::string(PEC_BIN) + " prove " +
                        std::string(PEC_RULES_DIR) + "/" + RulesFile +
                        " --jobs " + std::to_string(Jobs) +
                        " --report json 2>/dev/null";
  std::string Out;
  EXPECT_TRUE(capture(Command, Out)) << Command;
  EXPECT_FALSE(Out.empty()) << Command;
  return Out;
}

/// Zeroes every timing value: the report is byte-deterministic except for
/// fields whose key ends in `seconds`, `microseconds`, or `_us` (and the
/// wall clock has no business being reproducible), plus the whole v4
/// `metrics` section — its histograms hold raw latency samples, and some
/// counts (single-flight cache waits, pool task splits) depend on
/// scheduling.
std::string normalizeTimings(const std::string &Doc) {
  static const std::regex TimingField(
      "\"([a-z_]*(seconds|microseconds|_us))\":[0-9.eE+-]+");
  std::string Out = std::regex_replace(Doc, TimingField, "\"$1\":0");
  size_t Key = Out.find("\"metrics\":{");
  if (Key != std::string::npos) {
    size_t Open = Key + std::string("\"metrics\":").size();
    int Depth = 0;
    size_t End = Open;
    for (; End < Out.size(); ++End) {
      if (Out[End] == '{')
        ++Depth;
      else if (Out[End] == '}' && --Depth == 0) {
        ++End;
        break;
      }
    }
    Out.replace(Key, End - Key, "\"metrics\":{}");
  }
  return Out;
}

std::map<std::string, bool> provedSet(const std::string &Doc) {
  std::map<std::string, bool> Out;
  std::string Error;
  json::ValuePtr Report = json::parse(Doc, &Error);
  EXPECT_TRUE(Report != nullptr) << Error;
  if (!Report)
    return Out;
  for (const json::ValuePtr &Rule : Report->get("rules")->array())
    Out[Rule->get("name")->stringValue()] =
        Rule->get("proved")->boolValue();
  return Out;
}

/// Per rule, the work counts that must not depend on --jobs: ATP queries
/// (in total and per purpose), strengthenings, relation size, and path
/// pairs enumerated and pruned.
std::map<std::string, std::map<std::string, double>>
ruleCounts(const std::string &Doc) {
  std::map<std::string, std::map<std::string, double>> Out;
  std::string Error;
  json::ValuePtr Report = json::parse(Doc, &Error);
  EXPECT_TRUE(Report != nullptr) << Error;
  if (!Report)
    return Out;
  for (const json::ValuePtr &Rule : Report->get("rules")->array()) {
    std::map<std::string, double> &Counts =
        Out[Rule->get("name")->stringValue()];
    json::ValuePtr Atp = Rule->get("atp");
    Counts["atp.queries"] = Atp->get("queries")->numberValue();
    for (const auto &[Purpose, Slice] : Atp->get("by_purpose")->object())
      Counts["atp.by_purpose." + Purpose + ".queries"] =
          Slice->get("queries")->numberValue();
    for (const char *Key :
         {"strengthenings", "relation_size", "path_pairs", "pruned_path_pairs"})
      Counts[Key] = Rule->get(Key)->numberValue();
  }
  return Out;
}

TEST(ParallelDeterminism, Figure11RepeatsByteIdentical) {
  std::string First = normalizeTimings(proveJson("figure11.rules", 8));
  std::string Second = normalizeTimings(proveJson("figure11.rules", 8));
  EXPECT_EQ(First, Second)
      << "two --jobs 8 runs disagree beyond timing fields";
}

TEST(ParallelDeterminism, UnsoundRulesRepeatByteIdentical) {
  // Failing rules exercise the diagnosis path (counterexample models,
  // strengthening trails) — those must be deterministic too.
  std::string First = normalizeTimings(proveJson("unsound.rules", 8));
  std::string Second = normalizeTimings(proveJson("unsound.rules", 8));
  EXPECT_EQ(First, Second)
      << "two --jobs 8 runs over unsound.rules disagree beyond timing";
}

TEST(ParallelDeterminism, JobCountDoesNotChangeOutcomes) {
  // Parallelism is per rule, and each rule runs on one thread with its
  // own incremental session, so --jobs must change neither a verdict nor
  // any rule's work counts.
  for (const char *File :
       {"figure11.rules", "unsound.rules", "negative.rules"}) {
    SCOPED_TRACE(File);
    std::string Sequential = proveJson(File, 1);
    std::string Parallel = proveJson(File, 4);
    ASSERT_FALSE(provedSet(Sequential).empty());
    EXPECT_EQ(provedSet(Sequential), provedSet(Parallel));
    EXPECT_EQ(ruleCounts(Sequential), ruleCounts(Parallel));
  }
}

TEST(ParallelDeterminism, CacheHitsAreNonzeroAndSchedulingIndependent) {
  std::string Error;
  json::ValuePtr R8 = json::parse(proveJson("figure11.rules", 8), &Error);
  ASSERT_TRUE(R8 != nullptr) << Error;
  json::ValuePtr Cache = R8->get("cache");
  ASSERT_TRUE(Cache != nullptr);
  EXPECT_TRUE(Cache->get("enabled")->boolValue());
  double Hits = Cache->get("hits")->numberValue();
  EXPECT_GT(Hits, 0) << "shared cache never hit across the suite";
  EXPECT_GT(Cache->get("hit_rate")->numberValue(), 0.0);
  EXPECT_EQ(Cache->get("evictions")->numberValue(), 0)
      << "eviction at default capacity would break determinism";

  // Single-flight makes the global hit/miss totals a property of the
  // rule set, not the schedule: jobs 2 must agree with jobs 8.
  json::ValuePtr R2 = json::parse(proveJson("figure11.rules", 2), &Error);
  ASSERT_TRUE(R2 != nullptr) << Error;
  EXPECT_EQ(R2->get("cache")->get("hits")->numberValue(), Hits);
  EXPECT_EQ(R2->get("cache")->get("misses")->numberValue(),
            Cache->get("misses")->numberValue());
}

/// The count reference: one `<file> <rule> <count> <value>` line per
/// ruleCounts() entry of a `--jobs 1` run over each file.
std::string countReference() {
  std::string Out;
  for (const char *File :
       {"figure11.rules", "unsound.rules", "negative.rules"})
    for (const auto &[Rule, Counts] : ruleCounts(proveJson(File, 1)))
      for (const auto &[Key, Value] : Counts)
        Out += std::string(File) + ' ' + Rule + ' ' + Key + ' ' +
               std::to_string(static_cast<uint64_t>(Value)) + '\n';
  return Out;
}

TEST(RuleCounts, MatchCommittedReference) {
  // Exact work counts are the regression signal a wall clock cannot give
  // on a ~0.1 s suite. A change that moves one regenerates the reference
  // and explains the move in CHANGES.md.
  const std::string Path = std::string(PEC_GOLDEN_DIR) + "/rule_counts.golden";
  std::ifstream In(Path);
  std::stringstream Committed;
  Committed << In.rdbuf();
  std::string Fresh = countReference();
  EXPECT_EQ(Committed.str(), Fresh)
      << "per-rule counts differ from " << Path
      << ". Fresh reference, ready to paste in:\n"
      << Fresh;
}

} // namespace
