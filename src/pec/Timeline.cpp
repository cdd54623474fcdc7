//===- Timeline.cpp - Run-journal reconstruction and analysis -------------===//

#include "pec/Timeline.h"

#include "support/Escape.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>

using namespace pec;
using namespace pec::timeline;

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

bool fail(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
  return false;
}

uint64_t asU64(const json::ValuePtr &V) {
  return V && V->isNumber() ? static_cast<uint64_t>(V->numberValue()) : 0;
}

/// Copies every string member of \p Obj not named in \p Skip into
/// \p Attrs — attribution fields are open-ended by design.
void collectAttrs(const json::Value &Obj,
                  std::map<std::string, std::string> &Attrs,
                  std::initializer_list<const char *> Skip) {
  for (const auto &[Key, Val] : Obj.object()) {
    bool Skipped = false;
    for (const char *S : Skip)
      Skipped |= Key == S;
    if (!Skipped && Val && Val->isString())
      Attrs[Key] = Val->stringValue();
  }
}

} // namespace

bool timeline::parseJournal(const std::string &Text, Journal &Out,
                            std::string *Error) {
  Out = Journal();
  size_t LineNo = 0;
  size_t Pos = 0;
  bool SawHeader = false;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    std::string JsonError;
    json::ValuePtr V = json::parse(Line, &JsonError);
    if (!V || !V->isObject())
      return fail(Error, "line " + std::to_string(LineNo) +
                             ": not a JSON object (" + JsonError + ")");
    if (!SawHeader) {
      json::ValuePtr Schema = V->get("schema");
      if (!Schema || !Schema->isString())
        return fail(Error, "line 1: missing journal schema header");
      Out.Schema = Schema->stringValue();
      if (Out.Schema != "pec-journal-v1")
        return fail(Error, "unsupported journal schema '" + Out.Schema + "'");
      SawHeader = true;
      continue;
    }
    json::ValuePtr Ev = V->get("ev");
    if (!Ev || !Ev->isString())
      return fail(Error,
                  "line " + std::to_string(LineNo) + ": missing \"ev\"");
    const std::string &Kind = Ev->stringValue();
    if (Kind == "b") {
      JournalSpan S;
      S.Id = asU64(V->get("span"));
      S.Trace = asU64(V->get("trace"));
      S.Parent = asU64(V->get("parent"));
      S.Tid = asU64(V->get("tid"));
      S.BeginUs = asU64(V->get("ts"));
      json::ValuePtr Name = V->get("name");
      S.Name = Name && Name->isString() ? Name->stringValue() : "";
      if (S.Id == 0 || S.Name.empty())
        return fail(Error, "line " + std::to_string(LineNo) +
                               ": begin event without span id or name");
      if (Out.ById.count(S.Id))
        return fail(Error, "line " + std::to_string(LineNo) +
                               ": duplicate begin for span " +
                               std::to_string(S.Id));
      collectAttrs(*V, S.Attrs,
                   {"ev", "name", "trace", "span", "parent", "tid", "ts"});
      Out.ById[S.Id] = Out.Spans.size();
      Out.Spans.push_back(std::move(S));
    } else if (Kind == "e") {
      uint64_t Id = asU64(V->get("span"));
      auto It = Out.ById.find(Id);
      if (It == Out.ById.end())
        return fail(Error, "line " + std::to_string(LineNo) +
                               ": end event for unknown span " +
                               std::to_string(Id));
      JournalSpan &S = Out.Spans[It->second];
      if (S.Ended)
        return fail(Error, "line " + std::to_string(LineNo) +
                               ": duplicate end for span " +
                               std::to_string(Id));
      S.Ended = true;
      S.EndUs = asU64(V->get("ts"));
      collectAttrs(*V, S.Attrs, {"ev", "span", "ts"});
    } else if (Kind == "i") {
      JournalInstant I;
      I.SpanId = asU64(V->get("span"));
      I.Tid = asU64(V->get("tid"));
      I.Ts = asU64(V->get("ts"));
      json::ValuePtr Name = V->get("name");
      I.Name = Name && Name->isString() ? Name->stringValue() : "";
      if (I.Name.empty())
        return fail(Error, "line " + std::to_string(LineNo) +
                               ": instant event without a name");
      collectAttrs(*V, I.Attrs, {"ev", "name", "span", "tid", "ts"});
      Out.Instants.push_back(std::move(I));
    } else {
      return fail(Error, "line " + std::to_string(LineNo) +
                             ": unknown event kind '" + Kind + "'");
    }
  }
  if (!SawHeader)
    return fail(Error, "empty journal (no schema header)");
  return true;
}

//===----------------------------------------------------------------------===//
// Validation
//===----------------------------------------------------------------------===//

bool timeline::validateJournal(const Journal &J, std::string *Error) {
  for (const JournalSpan &S : J.Spans) {
    std::string Tag = "span " + std::to_string(S.Id) + " (" + S.Name + ")";
    if (!S.Ended)
      return fail(Error, Tag + ": begin without a matching end");
    if (S.EndUs < S.BeginUs)
      return fail(Error, Tag + ": ends before it begins");
    if (S.Parent != 0) {
      auto It = J.ById.find(S.Parent);
      if (It == J.ById.end())
        return fail(Error, Tag + ": parent " + std::to_string(S.Parent) +
                               " does not exist");
      // Ids are allocation-ordered (support/Trace.cpp), so every edge
      // pointing at a smaller id proves the parent relation is acyclic.
      if (S.Parent >= S.Id)
        return fail(Error, Tag + ": parent id not older than the span "
                               "(causal order violated)");
      const JournalSpan &P = J.Spans[It->second];
      if (S.BeginUs < P.BeginUs || S.EndUs > P.EndUs)
        return fail(Error, Tag + ": interval not contained in parent " +
                               std::to_string(S.Parent));
      if (S.Trace != P.Trace)
        return fail(Error, Tag + ": trace id differs from its parent's");
    }
  }
  for (const JournalInstant &I : J.Instants)
    if (I.SpanId != 0 && !J.ById.count(I.SpanId))
      return fail(Error, "instant '" + I.Name + "': span " +
                             std::to_string(I.SpanId) + " does not exist");
  return true;
}

//===----------------------------------------------------------------------===//
// Analysis
//===----------------------------------------------------------------------===//

namespace {

uint64_t duration(const JournalSpan &S) { return S.EndUs - S.BeginUs; }

/// Attribution summary shown next to a critical-path hop.
std::string stepDetail(const JournalSpan &S) {
  auto Get = [&](const char *K) -> std::string {
    auto It = S.Attrs.find(K);
    return It == S.Attrs.end() ? std::string() : It->second;
  };
  if (S.Name == "rule")
    return Get("rule");
  if (S.Name == "obligation") {
    std::string D = "#" + Get("obligation");
    if (Get("kind") == "strengthen-recheck")
      D += " (re-check)";
    return D;
  }
  if (S.Name == "atp.query") {
    std::string D = Get("purpose");
    if (!Get("cache").empty())
      D += " cache=" + Get("cache");
    return D;
  }
  if (S.Name == "check")
    return "attempt " + Get("attempt");
  return std::string();
}

} // namespace

TimelineAnalysis timeline::analyzeTimeline(const Journal &J) {
  TimelineAnalysis A;
  A.Spans = J.Spans.size();
  if (J.Spans.empty())
    return A;

  uint64_t MinBegin = UINT64_MAX, MaxEnd = 0;
  std::map<uint64_t, std::vector<size_t>> Children;
  std::vector<size_t> Roots;
  for (size_t I = 0; I < J.Spans.size(); ++I) {
    const JournalSpan &S = J.Spans[I];
    MinBegin = std::min(MinBegin, S.BeginUs);
    MaxEnd = std::max(MaxEnd, S.EndUs);
    if (S.Parent != 0 && J.ById.count(S.Parent))
      Children[S.Parent].push_back(I);
    else
      Roots.push_back(I);
    if (S.Name == "atp.query")
      ++A.Queries;
    if (S.Name == "run") {
      auto It = S.Attrs.find("jobs");
      if (It != S.Attrs.end())
        A.Jobs = std::strtoull(It->second.c_str(), nullptr, 10);
    }
  }
  A.WallUs = MaxEnd - MinBegin;

  // Self time, by per-thread temporal nesting. Causal parentage is the
  // wrong lens here: with a helping work-stealing pool, a thread blocked
  // in a task group's join loop executes unrelated tasks, and those
  // causally belong to *other* rules. Each thread runs one thing at a time and
  // spans are scoped, so per tid the intervals nest — a span's self time
  // is its duration minus its direct temporal children on the same tid.
  // Summed per tid this is an interval union, hence bounded by wall.
  std::vector<uint64_t> SelfUs(J.Spans.size());
  std::map<uint64_t, std::vector<size_t>> ByTid;
  for (size_t I = 0; I < J.Spans.size(); ++I)
    ByTid[J.Spans[I].Tid].push_back(I);
  A.Threads = ByTid.size();
  for (auto &[Tid, Indices] : ByTid) {
    (void)Tid;
    std::sort(Indices.begin(), Indices.end(), [&](size_t X, size_t Y) {
      if (J.Spans[X].BeginUs != J.Spans[Y].BeginUs)
        return J.Spans[X].BeginUs < J.Spans[Y].BeginUs;
      return J.Spans[X].EndUs > J.Spans[Y].EndUs; // Outer span first.
    });
    std::vector<size_t> Stack;
    for (size_t I : Indices) {
      while (!Stack.empty() &&
             J.Spans[Stack.back()].EndUs <= J.Spans[I].BeginUs)
        Stack.pop_back();
      SelfUs[I] = duration(J.Spans[I]);
      if (!Stack.empty()) {
        uint64_t &Parent = SelfUs[Stack.back()];
        Parent -= std::min(Parent, duration(J.Spans[I]));
      }
      Stack.push_back(I);
    }
  }
  for (size_t I = 0; I < J.Spans.size(); ++I)
    if (J.Spans[I].Name != "cache.wait")
      A.BusyUs += SelfUs[I];

  // Critical path over the *causal* tree: CP(s) = max(0, D(s) - sum of
  // causal child durations) + max over children CP(c). Containment
  // (validateJournal) makes CP(s) <= duration(s) inductively, so the
  // root path can never exceed wall-clock.
  std::vector<uint64_t> Exclusive(J.Spans.size());
  for (size_t I = 0; I < J.Spans.size(); ++I) {
    uint64_t ChildUs = 0;
    auto It = Children.find(J.Spans[I].Id);
    if (It != Children.end())
      for (size_t C : It->second)
        ChildUs += duration(J.Spans[C]);
    uint64_t D = duration(J.Spans[I]);
    Exclusive[I] = D > ChildUs ? D - ChildUs : 0;
  }
  std::vector<uint64_t> Cp(J.Spans.size(), 0);
  std::vector<int64_t> BestChild(J.Spans.size(), -1);
  std::function<uint64_t(size_t)> Compute = [&](size_t I) -> uint64_t {
    if (Cp[I])
      return Cp[I];
    uint64_t Best = 0;
    auto It = Children.find(J.Spans[I].Id);
    if (It != Children.end()) {
      for (size_t C : It->second) {
        uint64_t V = Compute(C);
        if (V > Best) {
          Best = V;
          BestChild[I] = static_cast<int64_t>(C);
        }
      }
    }
    Cp[I] = Exclusive[I] + Best;
    return Cp[I];
  };
  size_t BestRoot = 0;
  for (size_t R : Roots)
    if (Compute(R) > Cp[BestRoot])
      BestRoot = R;
  if (!Roots.empty()) {
    if (Cp[BestRoot] == 0)
      BestRoot = Roots.front();
    A.CriticalPathUs = Cp[BestRoot];
    for (int64_t I = static_cast<int64_t>(BestRoot); I >= 0;
         I = BestChild[I]) {
      const JournalSpan &S = J.Spans[I];
      A.CriticalPath.push_back(
          CriticalPathStep{S.Id, S.Name, stepDetail(S), Exclusive[I]});
    }
  }

  // Per-rule attribution: walk each rule span's subtree.
  for (size_t I = 0; I < J.Spans.size(); ++I) {
    const JournalSpan &Rule = J.Spans[I];
    if (Rule.Name != "rule")
      continue;
    RuleAttribution R;
    auto NameIt = Rule.Attrs.find("rule");
    R.Rule = NameIt != Rule.Attrs.end() ? NameIt->second : "?";
    R.WallUs = duration(Rule);
    R.Proved = Rule.Attrs.count("proved") && Rule.Attrs.at("proved") == "yes";
    std::vector<size_t> Stack{I};
    while (!Stack.empty()) {
      size_t Cur = Stack.back();
      Stack.pop_back();
      const JournalSpan &S = J.Spans[Cur];
      if (S.Name != "cache.wait")
        R.CpuUs += SelfUs[Cur];
      if (S.Name == "atp.query") {
        ++R.Queries;
        auto C = S.Attrs.find("cache");
        if (C != S.Attrs.end() && C->second == "hit")
          ++R.CacheHits;
        if (C != S.Attrs.end() && C->second == "miss")
          ++R.CacheMisses;
      } else if (S.Name == "obligation") {
        ++R.Obligations;
      }
      auto It = Children.find(S.Id);
      if (It != Children.end())
        Stack.insert(Stack.end(), It->second.begin(), It->second.end());
    }
    A.Rules.push_back(std::move(R));
  }
  std::sort(A.Rules.begin(), A.Rules.end(),
            [](const RuleAttribution &X, const RuleAttribution &Y) {
              return X.WallUs != Y.WallUs ? X.WallUs > Y.WallUs
                                          : X.Rule < Y.Rule;
            });

  // Wasted work.
  for (size_t I = 0; I < J.Spans.size(); ++I) {
    const JournalSpan &S = J.Spans[I];
    if (S.Name == "cache.wait") {
      ++A.CacheWaits;
      A.CacheWaitUs += duration(S);
    } else if (S.Name == "obligation") {
      auto K = S.Attrs.find("kind");
      if (K != S.Attrs.end() && K->second == "strengthen-recheck") {
        ++A.Rechecks;
        A.RecheckUs += duration(S);
      }
    }
  }
  for (const JournalInstant &I : J.Instants) {
    if (I.Name == "core_skip")
      ++A.CoreSkips;
    else if (I.Name == "strengthen")
      ++A.Strengthenings;
  }

  if (A.Threads > 0 && A.WallUs > 0) {
    uint64_t Capacity = A.Threads * A.WallUs;
    A.Utilization = static_cast<double>(A.BusyUs) / Capacity;
    A.IdleUs = Capacity > A.BusyUs ? Capacity - A.BusyUs : 0;
  }
  return A;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

std::string fmtMs(uint64_t Us) {
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "%.3fms", Us / 1000.0);
  return Buf;
}

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  Out += Buf;
}

} // namespace

std::string timeline::renderTimelineText(const TimelineAnalysis &A) {
  std::string Out;
  appendf(Out, "run timeline (pec-journal-v1)\n");
  appendf(Out, "  wall %s, %llu spans, %llu ATP queries",
          fmtMs(A.WallUs).c_str(), static_cast<unsigned long long>(A.Spans),
          static_cast<unsigned long long>(A.Queries));
  if (A.Jobs)
    appendf(Out, ", %llu jobs", static_cast<unsigned long long>(A.Jobs));
  if (A.Threads)
    appendf(Out, ", %llu threads observed",
            static_cast<unsigned long long>(A.Threads));
  Out += "\n\n";

  appendf(Out, "critical path: %s", fmtMs(A.CriticalPathUs).c_str());
  if (A.WallUs)
    appendf(Out, " (%.1f%% of wall — the floor for any --jobs)",
            100.0 * A.CriticalPathUs / A.WallUs);
  Out += "\n";
  for (const CriticalPathStep &S : A.CriticalPath) {
    appendf(Out, "  %-12s %-28s %10s\n", S.Name.c_str(), S.Detail.c_str(),
            fmtMs(S.SelfUs).c_str());
  }
  Out += "\n";

  appendf(Out, "per-rule attribution (wall vs summed CPU):\n");
  appendf(Out, "  %-32s %10s %10s %8s %5s %5s %6s\n", "rule", "wall", "cpu",
          "queries", "hit", "miss", "oblig");
  for (const RuleAttribution &R : A.Rules) {
    appendf(Out, "  %-32s %10s %10s %8llu %5llu %5llu %6llu%s\n",
            R.Rule.c_str(), fmtMs(R.WallUs).c_str(), fmtMs(R.CpuUs).c_str(),
            static_cast<unsigned long long>(R.Queries),
            static_cast<unsigned long long>(R.CacheHits),
            static_cast<unsigned long long>(R.CacheMisses),
            static_cast<unsigned long long>(R.Obligations),
            R.Proved ? "" : "  (not proved)");
  }
  Out += "\n";

  if (A.Threads) {
    appendf(Out,
            "scheduler: busy %s of %s capacity (%llu threads x %s) — "
            "%.1f%% utilization, idle %s\n",
            fmtMs(A.BusyUs).c_str(), fmtMs(A.Threads * A.WallUs).c_str(),
            static_cast<unsigned long long>(A.Threads),
            fmtMs(A.WallUs).c_str(), 100.0 * A.Utilization,
            fmtMs(A.IdleUs).c_str());
  } else {
    appendf(Out, "scheduler: busy %s\n", fmtMs(A.BusyUs).c_str());
  }
  Out += "\n";

  appendf(Out, "wasted work:\n");
  appendf(Out, "  single-flight cache waits: %llu (%s blocked)\n",
          static_cast<unsigned long long>(A.CacheWaits),
          fmtMs(A.CacheWaitUs).c_str());
  appendf(Out, "  strengthening re-checks:   %llu (%s re-proved)\n",
          static_cast<unsigned long long>(A.Rechecks),
          fmtMs(A.RecheckUs).c_str());
  appendf(Out, "  re-checks skipped by unsat cores: %llu (work avoided)\n",
          static_cast<unsigned long long>(A.CoreSkips));
  appendf(Out, "  strengthenings:            %llu\n",
          static_cast<unsigned long long>(A.Strengthenings));
  if (A.Threads)
    appendf(Out, "  idle capacity:             %s\n", fmtMs(A.IdleUs).c_str());
  return Out;
}

std::string timeline::renderTimelineJson(const TimelineAnalysis &A) {
  std::string Out = "{\"schema\":\"pec-timeline-v1\"";
  auto Num = [&](const char *Key, uint64_t V) {
    Out += ",\"";
    Out += Key;
    Out += "\":";
    Out += std::to_string(V);
  };
  Num("wall_us", A.WallUs);
  Num("jobs", A.Jobs);
  Num("threads", A.Threads);
  Num("spans", A.Spans);
  Num("queries", A.Queries);
  Num("critical_path_us", A.CriticalPathUs);
  Out += ",\"critical_path\":[";
  for (size_t I = 0; I < A.CriticalPath.size(); ++I) {
    const CriticalPathStep &S = A.CriticalPath[I];
    if (I)
      Out += ',';
    Out += "{\"span\":" + std::to_string(S.SpanId) + ",\"name\":\"" +
           escapeJson(S.Name) + "\",\"detail\":\"" + escapeJson(S.Detail) +
           "\",\"self_us\":" + std::to_string(S.SelfUs) + "}";
  }
  Out += "],\"rules\":[";
  for (size_t I = 0; I < A.Rules.size(); ++I) {
    const RuleAttribution &R = A.Rules[I];
    if (I)
      Out += ',';
    Out += "{\"name\":\"" + escapeJson(R.Rule) + "\"";
    Out += ",\"proved\":" + std::string(R.Proved ? "true" : "false");
    Out += ",\"wall_us\":" + std::to_string(R.WallUs);
    Out += ",\"cpu_us\":" + std::to_string(R.CpuUs);
    Out += ",\"queries\":" + std::to_string(R.Queries);
    Out += ",\"cache_hits\":" + std::to_string(R.CacheHits);
    Out += ",\"cache_misses\":" + std::to_string(R.CacheMisses);
    Out += ",\"obligations\":" + std::to_string(R.Obligations) + "}";
  }
  Out += "]";
  Num("busy_us", A.BusyUs);
  char Util[32];
  snprintf(Util, sizeof(Util), "%.4f", A.Utilization);
  Out += ",\"utilization\":";
  Out += Util;
  Num("idle_us", A.IdleUs);
  Out += ",\"wasted\":{";
  Out += "\"cache_waits\":" + std::to_string(A.CacheWaits);
  Out += ",\"cache_wait_us\":" + std::to_string(A.CacheWaitUs);
  Out += ",\"rechecks\":" + std::to_string(A.Rechecks);
  Out += ",\"recheck_us\":" + std::to_string(A.RecheckUs);
  Out += ",\"core_skips\":" + std::to_string(A.CoreSkips);
  Out += ",\"strengthenings\":" + std::to_string(A.Strengthenings);
  Out += "}}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Chrome trace rendering
//===----------------------------------------------------------------------===//

std::string timeline::renderChromeTrace(const Journal &J) {
  std::string Out = "{\"traceEvents\":[";
  auto Open = [&](const char *Ph, const std::string &Name, uint64_t Ts,
                  uint64_t Tid) {
    Out += Out.back() == '[' ? "\n" : ",\n";
    Out += "{\"name\":\"" + escapeJson(Name) + "\",\"ph\":\"" + Ph +
           "\",\"ts\":" + std::to_string(Ts) +
           ",\"pid\":1,\"tid\":" + std::to_string(Tid);
  };
  auto Close = [&](const std::map<std::string, std::string> &Attrs) {
    if (!Attrs.empty()) {
      const char *Sep = ",\"args\":{";
      for (const auto &[Key, Value] : Attrs) {
        Out += Sep;
        Out += "\"" + escapeJson(Key) + "\":\"" + escapeJson(Value) + "\"";
        Sep = ",";
      }
      Out += '}';
    }
    Out += '}';
  };
  for (const JournalSpan &S : J.Spans) {
    Open("X", S.Name, S.BeginUs, S.Tid);
    Out += ",\"dur\":" + std::to_string(S.Ended ? S.EndUs - S.BeginUs : 0);
    Close(S.Attrs);
    // A parent on another thread (ThreadPool::submit carried the context
    // over) becomes a flow arrow from the parent's slice to this one.
    auto It = J.ById.find(S.Parent);
    if (It == J.ById.end() || J.Spans[It->second].Tid == S.Tid)
      continue;
    const JournalSpan &P = J.Spans[It->second];
    uint64_t From = std::clamp(S.BeginUs, P.BeginUs,
                               std::max(P.BeginUs, P.EndUs));
    std::string Id = ",\"cat\":\"cause\",\"id\":" + std::to_string(S.Id);
    Open("s", "cause", From, P.Tid);
    Out += Id + "}";
    // bp:e binds the arrow head to the enclosing slice (this span).
    Open("f", "cause", S.BeginUs, S.Tid);
    Out += Id + ",\"bp\":\"e\"}";
  }
  for (const JournalInstant &I : J.Instants) {
    Open("i", I.Name, I.Ts, I.Tid);
    Out += ",\"s\":\"t\"";
    Close(I.Attrs);
  }
  Out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return Out;
}
