//===- FlightRecorder.h - Always-on crash/slow-query ring buffer -*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pec::flight`: an always-on, fixed-size per-thread ring buffer of recent
/// span begin/end edges and instants, dumped to `pec-flight-*.json` when a
/// fatal signal arrives or a single ATP query exceeds the `--slow-query-ms`
/// threshold. Every `trace::Span` writes its two edges here whether or not
/// a journal is open, so a dump is the tail of the run as the journal
/// would have recorded it: it answers *what were the last few thousand
/// things each thread did*, even when the process is dying.
///
/// Constraints that shape the API:
///
///   * **No allocation.** Rings live in a fixed static table of 128; a
///     thread claims a slot on its first event and returns it at thread
///     exit, so only 128 threads can record *at once*. Event names must
///     be string literals (or otherwise immortal pointers) so the dump
///     never chases freed memory.
///   * **Signal-tolerant dump.** `dump()` uses open/write/snprintf only, so
///     the fatal-signal handler can call it. It is best-effort by nature:
///     a handler firing mid-record may see one torn event, never a torn
///     heap.
///   * Recording is a clock read and a few relaxed atomic stores.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SUPPORT_FLIGHTRECORDER_H
#define PEC_SUPPORT_FLIGHTRECORDER_H

#include <cstdint>

namespace pec {
namespace flight {

enum class EventKind : uint32_t {
  Begin = 0, ///< Span opened.
  End = 1,   ///< Span closed (Arg = duration in microseconds).
  Instant = 2,
};

/// Nanoseconds since the recorder's (process-start) epoch.
uint64_t nowNs();

/// Records one event in the calling thread's ring, stamped \p TimeNs and
/// the thread's current trace context. \p Name MUST be a string literal
/// (the recorder stores the pointer, forever).
void record(EventKind Kind, const char *Name, uint64_t Arg = 0,
            uint64_t TimeNs = nowNs());

inline void instant(const char *Name, uint64_t Arg = 0) {
  record(EventKind::Instant, Name, Arg);
}

//===----------------------------------------------------------------------===//
// Slow-query auto-dump
//===----------------------------------------------------------------------===//

/// Threshold in microseconds above which a single ATP query triggers a
/// flight dump (0 disables; the `--slow-query-ms` flag sets this).
void setSlowQueryThresholdUs(uint64_t Us);
uint64_t slowQueryThresholdUs();

/// Called by the ATP when a query ran for \p Micros >= the threshold.
/// Dumps the rings (capped at a few dumps per process so a systematically
/// slow suite does not spray files).
void noteSlowQuery(const char *Name, uint64_t Micros);

//===----------------------------------------------------------------------===//
// Dumping
//===----------------------------------------------------------------------===//

/// Directory for dump files (default "."). The path is copied into a
/// fixed buffer at call time; truncated if longer than ~500 bytes.
void setDumpDir(const char *Dir);

/// Writes every thread's ring to `<dir>/pec-flight-<pid>-<seq>.json` with
/// the given reason string (a literal). Returns true when the file was
/// written. Safe to call from a signal handler.
bool dump(const char *Reason);

/// Path of the most recent successful dump ("" when none). Test hook.
const char *lastDumpPath();

/// Installs SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL handlers that dump the
/// rings and re-raise with default disposition.
void installSignalHandlers();

/// Clears every ring, the dump counters, and lastDumpPath. Test-only.
void resetForTest();

} // namespace flight
} // namespace pec

#endif // PEC_SUPPORT_FLIGHTRECORDER_H
