//===- Trace.h - Causal trace contexts and the run journal ------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pec::trace`: the causal tracing layer (docs/OBSERVABILITY.md, "Causal
/// tracing and the run journal"). Where `pec::telemetry` records *where
/// time went* per thread, this layer records *why each span ran*: every
/// span carries a TraceId (one proving run or one root rule proof), its
/// own SpanId, and the SpanId of the span that caused it — including
/// across `ThreadPool::submit`, which captures the submitting context and
/// re-installs it on the executing worker. The result is the causal DAG
/// rule → check → obligation → ATP query that `pec report timeline`
/// reconstructs to compute the critical path and wasted-work accounting.
///
/// Output is an append-only JSONL **run journal** (`--journal FILE`),
/// schema `pec-journal-v1`:
///
///   {"schema":"pec-journal-v1","start_us":0,...}         header, line 1
///   {"ev":"b","ts":12,"trace":1,"span":7,"parent":3,
///    "tid":2,"name":"atp.query","purpose":"obligation"}  span begin
///   {"ev":"e","ts":90,"span":7}                          span end
///   {"ev":"i","ts":55,"span":7,"tid":2,"name":"core_skip",...}  instant
///
/// Attribution fields (rule, obligation, purpose, cache, ...) are
/// flat string members on the end line — a span's attrs are often only
/// known mid-flight (cache hit/miss, verdict), so the begin line is
/// written eagerly for causal ordering and the end line carries the
/// attrs; readers merge the two by span id. Lines are written atomically
/// under one mutex, and a parent's begin always precedes its children's
/// (the parent span exists before anything it causes), so a single
/// forward pass can resolve every parent.
///
/// The layer is inert — context propagation included — unless a journal
/// is open: every entry point starts with one relaxed atomic load.
/// Span ids are also consumed by the Chrome-trace flow events
/// (`telemetry::flowBegin/flowEnd`) so Perfetto draws cross-thread arrows
/// between a submit site and the task it caused.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SUPPORT_TRACE_H
#define PEC_SUPPORT_TRACE_H

#include <cstdint>
#include <string>

namespace pec {
namespace trace {

/// The causal coordinates of the current dynamic extent: which trace
/// (proving run / root proof) it belongs to and which span caused it.
/// Zero ids mean "none".
struct Context {
  uint64_t TraceId = 0;
  uint64_t SpanId = 0;
};

/// True when a journal is open (one relaxed atomic load). Every other
/// entry point is a no-op when false.
bool enabled();

/// Opens the journal at \p Path (truncating), writes the schema header,
/// and enables the layer. Returns false on I/O failure. Not thread-safe
/// against concurrent spans — call before proving starts.
bool journalOpen(const std::string &Path);

/// Flushes and closes the journal and disables the layer. Safe to call
/// when no journal is open.
void journalClose();

/// The calling thread's current context (zeros when tracing is off or
/// outside any span).
Context current();

/// RAII: installs \p C as the calling thread's context, restoring the
/// previous one on destruction. ThreadPool::submit uses this to carry the
/// submitter's context onto the worker that executes the task.
class Adopt {
public:
  explicit Adopt(const Context &C);
  ~Adopt();
  Adopt(const Adopt &) = delete;
  Adopt &operator=(const Adopt &) = delete;

private:
  Context Saved;
};

/// RAII causal span: on construction (journal open) allocates a SpanId,
/// records the current span as parent — starting a fresh trace when there
/// is none — emits the begin line, and becomes the thread's current span.
/// Attribution fields accumulate and are emitted on the end line.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches an attribution field (emitted on the end line). Keys must
  /// be literal identifiers; values are JSON-escaped. No-op when the
  /// journal was closed at construction or the span already ended.
  void attr(const char *Key, const std::string &Value);
  void attr(const char *Key, uint64_t Value);

  /// Emits the end line before the scope closes (destructor then no-ops).
  void end();

  /// This span's id (0 when tracing was off at construction).
  uint64_t id() const { return Id; }

private:
  uint64_t Id = 0;
  Context Saved;
  /// Pre-rendered ",\"k\":\"v\"" attr fields for the end line.
  std::string EndAttrs;
};

/// Point event attached to the current span (e.g. a strengthening
/// re-check skipped by an unsat core). \p Key/\p Value add one
/// attribution field ("" key = none).
void instant(const char *Name, const char *Key = "",
             const std::string &Value = std::string());

/// Allocates a fresh id from the span-id counter. Used for Chrome-trace
/// flow bindings that need an id but no journal span.
uint64_t freshId();

} // namespace trace
} // namespace pec

#endif // PEC_SUPPORT_TRACE_H
