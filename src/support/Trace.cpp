//===- Trace.cpp - Spans, causal contexts and the run journal -------------===//

#include "support/Trace.h"

#include "support/Escape.h"
#include "support/FlightRecorder.h"

#include <atomic>
#include <cstdio>
#include <mutex>

using namespace pec;
using namespace pec::trace;

namespace {

/// Journal sink. One mutex serializes whole-line writes, so readers never
/// see interleaved or torn lines; spans format their line outside the lock
/// and hold it only for the fwrite.
struct Journal {
  std::mutex Mutex;
  std::FILE *File = nullptr;
  /// flight::nowNs() at journalOpen: journal timestamps are microseconds
  /// since then, read off the same clock sample as the ring edge.
  std::atomic<uint64_t> EpochNs{0};
};

Journal &journal() {
  static Journal J;
  return J;
}

std::atomic<bool> EnabledFlag{false};

/// Ids are process-global and strictly increasing, for traces and spans
/// alike. A span's parent is always allocated before it, so parent id <
/// child id — the timeline validator exploits this to check acyclicity
/// with a single comparison per edge.
std::atomic<uint64_t> NextId{1};

thread_local Context CurrentContext;

/// Journal tids are small and dense, allocated on a thread's first line.
std::atomic<uint32_t> NextTid{1};
thread_local uint32_t LocalTid = 0;

uint32_t localTid() {
  if (LocalTid == 0)
    LocalTid = NextTid.fetch_add(1, std::memory_order_relaxed);
  return LocalTid;
}

uint64_t journalMicros(uint64_t Ns) {
  return (Ns - journal().EpochNs.load(std::memory_order_relaxed)) / 1000;
}

void writeLine(const std::string &Line) {
  Journal &J = journal();
  std::lock_guard<std::mutex> Lock(J.Mutex);
  if (!J.File)
    return;
  std::fwrite(Line.data(), 1, Line.size(), J.File);
  std::fputc('\n', J.File);
}

void appendAttr(std::string &Out, const char *Key, const std::string &Value) {
  Out += ",\"";
  Out += Key;
  Out += "\":\"";
  Out += escapeJson(Value);
  Out += '"';
}

} // namespace

//===----------------------------------------------------------------------===//
// Journal lifecycle
//===----------------------------------------------------------------------===//

bool trace::enabled() { return EnabledFlag.load(std::memory_order_relaxed); }

bool trace::journalOpen(const std::string &Path) {
  Journal &J = journal();
  std::lock_guard<std::mutex> Lock(J.Mutex);
  if (J.File) {
    std::fclose(J.File);
    J.File = nullptr;
  }
  J.File = std::fopen(Path.c_str(), "w");
  if (!J.File)
    return false;
  J.EpochNs.store(flight::nowNs(), std::memory_order_relaxed);
  std::string Header = "{\"schema\":\"pec-journal-v1\",\"start_us\":0}";
  std::fwrite(Header.data(), 1, Header.size(), J.File);
  std::fputc('\n', J.File);
  EnabledFlag.store(true, std::memory_order_relaxed);
  return true;
}

void trace::journalClose() {
  EnabledFlag.store(false, std::memory_order_relaxed);
  Journal &J = journal();
  std::lock_guard<std::mutex> Lock(J.Mutex);
  if (J.File) {
    std::fclose(J.File);
    J.File = nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Contexts
//===----------------------------------------------------------------------===//

Context trace::current() { return CurrentContext; }

Adopt::Adopt(const Context &C) : Saved(CurrentContext) { CurrentContext = C; }

Adopt::~Adopt() { CurrentContext = Saved; }

//===----------------------------------------------------------------------===//
// Spans and instants
//===----------------------------------------------------------------------===//

Span::Span(const char *Name) : Name(Name), StartNs(flight::nowNs()) {
  if (enabled()) {
    Saved = CurrentContext;
    Id = NextId.fetch_add(1, std::memory_order_relaxed);
    uint64_t Trace = Saved.TraceId ? Saved.TraceId : Id;
    CurrentContext = {Trace, Id};

    std::string Line = "{\"ev\":\"b\",\"ts\":";
    Line += std::to_string(journalMicros(StartNs));
    Line += ",\"trace\":";
    Line += std::to_string(Trace);
    Line += ",\"span\":";
    Line += std::to_string(Id);
    Line += ",\"parent\":";
    Line += std::to_string(Saved.SpanId);
    Line += ",\"tid\":";
    Line += std::to_string(localTid());
    Line += ",\"name\":\"";
    Line += escapeJson(Name);
    Line += "\"}";
    writeLine(Line);
  }
  // After the context switch, so the edge carries this span's own ids.
  flight::record(flight::EventKind::Begin, Name, 0, StartNs);
}

Span::~Span() { end(); }

void Span::attr(const char *Key, const std::string &Value) {
  if (Id == 0)
    return;
  appendAttr(EndAttrs, Key, Value);
}

void Span::attr(const char *Key, uint64_t Value) {
  if (Id == 0)
    return;
  appendAttr(EndAttrs, Key, std::to_string(Value));
}

void Span::end() {
  if (!Name)
    return;
  uint64_t Ns = flight::nowNs();
  flight::record(flight::EventKind::End, Name, (Ns - StartNs) / 1000, Ns);
  Name = nullptr;
  if (Id == 0)
    return;
  std::string Line = "{\"ev\":\"e\",\"ts\":";
  Line += std::to_string(journalMicros(Ns));
  Line += ",\"span\":";
  Line += std::to_string(Id);
  Line += EndAttrs;
  Line += '}';
  writeLine(Line);
  CurrentContext = Saved;
  Id = 0;
}

void trace::instant(const char *Name, const char *Key,
                    const std::string &Value) {
  if (!enabled())
    return;
  std::string Line = "{\"ev\":\"i\",\"ts\":";
  Line += std::to_string(journalMicros(flight::nowNs()));
  Line += ",\"span\":";
  Line += std::to_string(CurrentContext.SpanId);
  Line += ",\"tid\":";
  Line += std::to_string(localTid());
  Line += ",\"name\":\"";
  Line += escapeJson(Name);
  Line += '"';
  if (Key && *Key)
    appendAttr(Line, Key, Value);
  Line += '}';
  writeLine(Line);
}
