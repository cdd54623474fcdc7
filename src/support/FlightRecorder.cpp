//===- FlightRecorder.cpp - Always-on crash/slow-query ring buffer --------===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//

#include "support/FlightRecorder.h"

#include "support/Log.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <unistd.h>

namespace pec {
namespace flight {

namespace {

constexpr uint32_t RingCapacity = 2048; ///< Events kept per thread.
constexpr uint32_t MaxRings = 128;      ///< Threads that can record at once.
constexpr int MaxAutoDumps = 4;         ///< Slow-query dump cap per process.

/// One recorded event. All fields are relaxed atomics so a signal handler
/// walking the ring concurrently with a recorder sees at worst one torn
/// event (mixed fields), never undefined behavior.
struct Event {
  std::atomic<const char *> Name{nullptr};
  std::atomic<uint64_t> TimeNs{0};
  std::atomic<uint64_t> Arg{0};
  std::atomic<uint32_t> Kind{0};
  /// Active causal context at record time (0 when no --journal), so a
  /// dump can be joined against the run journal by span id.
  std::atomic<uint64_t> Trace{0};
  std::atomic<uint64_t> Span{0};
};

struct Ring {
  std::atomic<uint64_t> Next{0}; ///< Monotonic event count; slot = Next % Cap.
  Event Events[RingCapacity];
};

/// Fixed table: no allocation, and the signal handler can walk it without
/// coordination. NumRings is the high-water mark the dump walks; slots of
/// exited threads go on a free list (under SlotMutex) for the next thread.
Ring Rings[MaxRings];
std::atomic<uint32_t> NumRings{0};
std::mutex SlotMutex;
uint32_t FreeSlots[MaxRings];
uint32_t NumFree = 0;

thread_local Ring *LocalRing = nullptr;

/// Returns the thread's ring slot to the free list at thread exit. Its
/// events stay in the dump until the next thread reuses the slot.
struct RingLease {
  ~RingLease() {
    if (!LocalRing)
      return;
    std::lock_guard<std::mutex> Lock(SlotMutex);
    FreeSlots[NumFree++] = static_cast<uint32_t>(LocalRing - Rings);
    LocalRing = nullptr;
  }
};

Ring *localRing() {
  if (LocalRing)
    return LocalRing;
  static thread_local RingLease Lease; // Registers the thread-exit hook.
  std::lock_guard<std::mutex> Lock(SlotMutex);
  uint32_t Slot;
  if (NumFree > 0) {
    Slot = FreeSlots[--NumFree];
    // A reused slot starts empty: the previous owner's events stop
    // showing in dumps.
    Rings[Slot].Next.store(0, std::memory_order_relaxed);
  } else {
    Slot = NumRings.load(std::memory_order_relaxed);
    // Out of slots: 128 threads are recording at once, and this one
    // records nowhere. Losing events beats allocating.
    if (Slot >= MaxRings)
      return nullptr;
    NumRings.store(Slot + 1, std::memory_order_relaxed);
  }
  LocalRing = &Rings[Slot];
  return LocalRing;
}

std::chrono::steady_clock::time_point processEpoch() {
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return Epoch;
}

/// Forces the epoch to be captured before threads start recording.
const bool EpochInitialized = (processEpoch(), true);

std::atomic<uint64_t> SlowThresholdUs{0};
std::atomic<int> AutoDumps{0};
std::atomic<bool> SuppressionWarned{false};
std::atomic<uint64_t> DumpSeq{0};

char DumpDir[512] = ".";
char LastDumpPath[640] = "";

/// write(2) the whole buffer; short writes are retried. Signal-safe.
bool writeAll(int Fd, const char *Buf, size_t Len) {
  while (Len > 0) {
    ssize_t N = ::write(Fd, Buf, Len);
    if (N <= 0)
      return false;
    Buf += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

/// snprintf into Buf and write it out. Names are literals from our own
/// code (no quotes/backslashes), so emitting them unescaped is safe.
bool writeEvent(int Fd, const Event &E, bool &First) {
  const char *Name = E.Name.load(std::memory_order_relaxed);
  if (!Name)
    return true; // Unused slot.
  static const char *const Kinds[] = {"B", "E", "I"};
  uint32_t Kind = E.Kind.load(std::memory_order_relaxed);
  if (Kind > 2)
    Kind = 2; // Torn event; keep the dump parseable.
  char Buf[512];
  int Len = snprintf(Buf, sizeof(Buf),
                     "%s\n    {\"name\":\"%s\",\"ph\":\"%s\",\"t_ns\":%" PRIu64
                     ",\"arg\":%" PRIu64 ",\"trace\":%" PRIu64
                     ",\"span\":%" PRIu64 "}",
                     First ? "" : ",", Name, Kinds[Kind],
                     E.TimeNs.load(std::memory_order_relaxed),
                     E.Arg.load(std::memory_order_relaxed),
                     E.Trace.load(std::memory_order_relaxed),
                     E.Span.load(std::memory_order_relaxed));
  First = false;
  if (Len < 0 || Len >= static_cast<int>(sizeof(Buf)))
    return false;
  return writeAll(Fd, Buf, static_cast<size_t>(Len));
}

void handleFatalSignal(int Sig) {
  dump("fatal-signal");
  // SA_RESETHAND restored the default disposition; re-raise so the
  // process still dies with the original signal.
  raise(Sig);
}

} // namespace

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - processEpoch())
          .count());
}

void record(EventKind Kind, const char *Name, uint64_t Arg, uint64_t TimeNs) {
  Ring *R = localRing();
  if (!R)
    return;
  uint64_t Idx = R->Next.fetch_add(1, std::memory_order_relaxed);
  Event &E = R->Events[Idx % RingCapacity];
  trace::Context TC = trace::current();
  E.Name.store(Name, std::memory_order_relaxed);
  E.TimeNs.store(TimeNs, std::memory_order_relaxed);
  E.Arg.store(Arg, std::memory_order_relaxed);
  E.Kind.store(static_cast<uint32_t>(Kind), std::memory_order_relaxed);
  E.Trace.store(TC.TraceId, std::memory_order_relaxed);
  E.Span.store(TC.SpanId, std::memory_order_relaxed);
}

void setSlowQueryThresholdUs(uint64_t Us) {
  SlowThresholdUs.store(Us, std::memory_order_relaxed);
}

uint64_t slowQueryThresholdUs() {
  return SlowThresholdUs.load(std::memory_order_relaxed);
}

void noteSlowQuery(const char *Name, uint64_t Micros) {
  instant("slow-query", Micros);
  (void)Name;
  if (AutoDumps.fetch_add(1, std::memory_order_relaxed) >= MaxAutoDumps) {
    // Not a signal context (slow-query breaches come from the query
    // accounting destructor), so counting and logging the suppression is
    // safe — and much better than the cap silently eating evidence.
    metrics::add(metrics::Counter::FlightDumpsSuppressed);
    if (!SuppressionWarned.exchange(true, std::memory_order_relaxed))
      log::warn("flight.dumps_suppressed")
          .num("cap", static_cast<uint64_t>(MaxAutoDumps))
          .num("slow_query_us", Micros);
    return;
  }
  dump("slow-query");
}

void setDumpDir(const char *Dir) {
  snprintf(DumpDir, sizeof(DumpDir), "%s", Dir && *Dir ? Dir : ".");
}

bool dump(const char *Reason) {
  char Path[640];
  uint64_t Seq = DumpSeq.fetch_add(1, std::memory_order_relaxed);
  snprintf(Path, sizeof(Path), "%s/pec-flight-%ld-%" PRIu64 ".json", DumpDir,
           static_cast<long>(getpid()), Seq);
  int Fd = ::open(Path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;

  bool Ok = true;
  char Head[256];
  int Len = snprintf(Head, sizeof(Head),
                     "{\n  \"reason\":\"%s\",\n  \"now_ns\":%" PRIu64
                     ",\n  \"threads\":[",
                     Reason, nowNs());
  Ok = Ok && Len > 0 && writeAll(Fd, Head, static_cast<size_t>(Len));

  uint32_t N = NumRings.load(std::memory_order_relaxed);
  for (uint32_t T = 0; T < N && Ok; ++T) {
    const Ring &R = Rings[T];
    Len = snprintf(Head, sizeof(Head),
                   "%s\n   {\"thread\":%" PRIu32 ",\"events\":[", T ? "," : "",
                   T);
    Ok = Ok && Len > 0 && writeAll(Fd, Head, static_cast<size_t>(Len));
    // Oldest-first: when the ring has wrapped, start at the slot Next
    // points into (the oldest surviving event).
    uint64_t Count = R.Next.load(std::memory_order_relaxed);
    uint64_t Start = Count > RingCapacity ? Count % RingCapacity : 0;
    uint64_t Used = Count > RingCapacity ? RingCapacity : Count;
    bool First = true;
    for (uint64_t I = 0; I < Used && Ok; ++I)
      Ok = writeEvent(Fd, R.Events[(Start + I) % RingCapacity], First);
    Ok = Ok && writeAll(Fd, "]}", 2);
  }
  Ok = Ok && writeAll(Fd, "]\n}\n", 4);
  ::close(Fd);
  if (Ok)
    snprintf(LastDumpPath, sizeof(LastDumpPath), "%s", Path);
  return Ok;
}

const char *lastDumpPath() { return LastDumpPath; }

void installSignalHandlers() {
  static const int Fatals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};
  struct sigaction Action;
  memset(&Action, 0, sizeof(Action));
  Action.sa_handler = handleFatalSignal;
  // One shot: the handler dumps, the re-raise gets default disposition.
  Action.sa_flags = SA_RESETHAND;
  sigemptyset(&Action.sa_mask);
  for (int Sig : Fatals)
    sigaction(Sig, &Action, nullptr);
}

void resetForTest() {
  uint32_t N = NumRings.load(std::memory_order_relaxed);
  for (uint32_t T = 0; T < N; ++T) {
    Ring &R = Rings[T];
    R.Next.store(0, std::memory_order_relaxed);
    for (Event &E : R.Events) {
      E.Name.store(nullptr, std::memory_order_relaxed);
      E.TimeNs.store(0, std::memory_order_relaxed);
      E.Arg.store(0, std::memory_order_relaxed);
      E.Kind.store(0, std::memory_order_relaxed);
      E.Trace.store(0, std::memory_order_relaxed);
      E.Span.store(0, std::memory_order_relaxed);
    }
  }
  AutoDumps.store(0, std::memory_order_relaxed);
  SuppressionWarned.store(false, std::memory_order_relaxed);
  LastDumpPath[0] = '\0';
}

} // namespace flight
} // namespace pec
