//===- Log.cpp - Leveled structured logging -------------------------------===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//

#include "support/Log.h"

#include "support/Escape.h"
#include "support/Trace.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <mutex>

namespace pec {
namespace log {

namespace {

std::atomic<int> ActiveLevel{static_cast<int>(Level::Warn)};
std::atomic<int> ActiveFormat{static_cast<int>(Format::Text)};

/// Serializes emission so concurrent threads never interleave lines.
std::mutex &emitMutex() {
  static std::mutex M;
  return M;
}

struct ContextFrame {
  const char *Key;
  std::string Value;
};

thread_local std::vector<ContextFrame> Context;

const char *levelName(Level L) {
  switch (L) {
  case Level::Debug:
    return "debug";
  case Level::Info:
    return "info";
  case Level::Warn:
    return "warn";
  case Level::Error:
    return "error";
  case Level::Off:
    return "off";
  }
  return "?";
}

/// ISO8601 UTC with millisecond precision: 2026-08-08T12:00:00.123Z.
std::string timestamp() {
  using namespace std::chrono;
  auto Now = system_clock::now();
  time_t Secs = system_clock::to_time_t(Now);
  auto Millis =
      duration_cast<milliseconds>(Now.time_since_epoch()).count() % 1000;
  struct tm Utc;
  gmtime_r(&Secs, &Utc);
  char Buf[40];
  size_t Len = strftime(Buf, sizeof(Buf), "%Y-%m-%dT%H:%M:%S", &Utc);
  snprintf(Buf + Len, sizeof(Buf) - Len, ".%03dZ", static_cast<int>(Millis));
  return Buf;
}

/// Keys are literals from our own call sites; values pass through
/// escapeJson at field-build time, so a field renders verbatim here.
void emitJson(Level L, const char *Name,
              const std::vector<std::pair<std::string, std::string>> &Fields) {
  std::string Line = "{\"ts\":\"" + timestamp() + "\",\"level\":\"" +
                     levelName(L) + "\",\"event\":\"" +
                     escapeJson(Name) + "\"";
  for (const ContextFrame &F : Context)
    Line += ",\"" + std::string(F.Key) + "\":\"" +
            escapeJson(F.Value) + "\"";
  // Join key against the run journal: events emitted inside a causal span
  // carry its ids (only when a --journal is being recorded).
  if (trace::Context TC = trace::current(); TC.SpanId != 0) {
    Line += ",\"trace_id\":" + std::to_string(TC.TraceId);
    Line += ",\"span_id\":" + std::to_string(TC.SpanId);
  }
  for (const auto &F : Fields)
    Line += ",\"" + F.first + "\":" + F.second;
  Line += "}\n";
  std::lock_guard<std::mutex> Lock(emitMutex());
  fputs(Line.c_str(), stderr);
}

void emitText(Level L, const char *Name,
              const std::vector<std::pair<std::string, std::string>> &Fields) {
  std::string Line = timestamp() + " " + levelName(L) + " " + Name;
  for (const ContextFrame &F : Context)
    Line += std::string(" ") + F.Key + "=" + F.Value;
  if (trace::Context TC = trace::current(); TC.SpanId != 0)
    Line += " trace_id=" + std::to_string(TC.TraceId) +
            " span_id=" + std::to_string(TC.SpanId);
  for (const auto &F : Fields)
    Line += " " + F.first + "=" + F.second;
  Line += "\n";
  std::lock_guard<std::mutex> Lock(emitMutex());
  fputs(Line.c_str(), stderr);
}

} // namespace

void setLevel(Level L) {
  ActiveLevel.store(static_cast<int>(L), std::memory_order_relaxed);
}

Level level() {
  return static_cast<Level>(ActiveLevel.load(std::memory_order_relaxed));
}

bool parseLevel(const std::string &Name, Level &Out) {
  if (Name == "debug")
    Out = Level::Debug;
  else if (Name == "info")
    Out = Level::Info;
  else if (Name == "warn")
    Out = Level::Warn;
  else if (Name == "error")
    Out = Level::Error;
  else if (Name == "off")
    Out = Level::Off;
  else
    return false;
  return true;
}

void setFormat(Format F) {
  ActiveFormat.store(static_cast<int>(F), std::memory_order_relaxed);
}

Format format() {
  return static_cast<Format>(ActiveFormat.load(std::memory_order_relaxed));
}

bool parseFormat(const std::string &Name, Format &Out) {
  if (Name == "text")
    Out = Format::Text;
  else if (Name == "json")
    Out = Format::Json;
  else
    return false;
  return true;
}

bool enabled(Level L) {
  return static_cast<int>(L) >=
         ActiveLevel.load(std::memory_order_relaxed);
}

Event::Event(Level L, const char *Name)
    : L(L), Name(Name), Live(enabled(L) && L != Level::Off) {}

Event::Event(Event &&O) noexcept
    : L(O.L), Name(O.Name), Live(O.Live), Fields(std::move(O.Fields)) {
  O.Live = false;
}

Event::~Event() {
  if (!Live)
    return;
  if (format() == Format::Json)
    emitJson(L, Name, Fields);
  else
    emitText(L, Name, Fields);
}

Event &Event::str(const char *Key, const std::string &Value) {
  if (Live)
    Fields.emplace_back(Key, "\"" + escapeJson(Value) + "\"");
  return *this;
}

Event &Event::num(const char *Key, int64_t Value) {
  if (Live) {
    char Buf[32];
    snprintf(Buf, sizeof(Buf), "%" PRId64, Value);
    Fields.emplace_back(Key, Buf);
  }
  return *this;
}

Event &Event::num(const char *Key, uint64_t Value) {
  if (Live) {
    char Buf[32];
    snprintf(Buf, sizeof(Buf), "%" PRIu64, Value);
    Fields.emplace_back(Key, Buf);
  }
  return *this;
}

Event &Event::real(const char *Key, double Value) {
  if (Live) {
    char Buf[48];
    snprintf(Buf, sizeof(Buf), "%.6g", Value);
    Fields.emplace_back(Key, Buf);
  }
  return *this;
}

Scope::Scope(const char *Key, const std::string &Value) {
  Context.push_back({Key, Value});
}

Scope::~Scope() { Context.pop_back(); }

} // namespace log
} // namespace pec
