//===- Trace.h - Spans, causal contexts and the run journal -----*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pec::trace`: the one span type of the pipeline (docs/OBSERVABILITY.md,
/// "Spans"). Every `Span` writes its
/// begin and end edges into the calling thread's flight ring
/// (support/FlightRecorder.h), always, so a flight dump shows the last
/// few thousand spans of each thread. When a journal is open it also
/// records *why each span ran*: every span then carries a TraceId (one
/// proving run or one root rule proof), its own SpanId, and the SpanId of
/// the span that caused it — including across `ThreadPool::submit`,
/// which captures the submitting context and re-installs it on the
/// executing worker. The result is the causal DAG rule → check →
/// obligation → ATP query that `pec report timeline` reconstructs to
/// compute the critical path and wasted-work accounting, and that
/// `pec prove --trace` renders as a Chrome trace
/// (`timeline::renderChromeTrace`).
///
/// The journal is an append-only JSONL **run journal** (`--journal FILE`),
/// schema `pec-journal-v1`:
///
///   {"schema":"pec-journal-v1","start_us":0,...}         header, line 1
///   {"ev":"b","ts":12,"trace":1,"span":7,"parent":3,
///    "tid":2,"name":"atp.query"}                         span begin
///   {"ev":"e","ts":90,"span":7,"purpose":"obligation"}   span end
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
/// With no journal open a span costs one ring record per edge; ids,
/// context propagation, attrs and instants are inert (one relaxed atomic
/// load each).
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

/// RAII span. Records a Begin edge in the thread's flight ring on
/// construction and an End edge (with the duration) on `end()`. When a
/// journal is open it also allocates a SpanId, records the current span
/// as parent — starting a fresh trace when there is none — emits the
/// begin line, and becomes the thread's current span; attribution fields
/// accumulate and are emitted on the end line.
class Span {
public:
  /// \p Name MUST be a string literal: the flight ring keeps the pointer.
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches an attribution field (emitted on the end line). Keys must
  /// be literal identifiers; values are JSON-escaped. No-op when the
  /// journal was closed at construction or the span already ended.
  void attr(const char *Key, const std::string &Value);
  void attr(const char *Key, uint64_t Value);

  /// Closes the span before the scope ends (the destructor then does
  /// nothing). Spans must end in LIFO order on their thread.
  void end();

  /// This span's id (0 when the journal was closed at construction, or
  /// once the span ended).
  uint64_t id() const { return Id; }

private:
  const char *Name; ///< nullptr once ended.
  uint64_t StartNs;
  uint64_t Id = 0;
  Context Saved;
  /// Pre-rendered ",\"k\":\"v\"" attr fields for the end line.
  std::string EndAttrs;
};

/// Journal-only point event attached to the current span (e.g. a
/// strengthening re-check skipped by an unsat core). \p Key/\p Value add
/// one attribution field ("" key = none). Callers that build an expensive
/// value (a printed formula) check `enabled()` first.
void instant(const char *Name, const char *Key = "",
             const std::string &Value = std::string());

} // namespace trace
} // namespace pec

#endif // PEC_SUPPORT_TRACE_H
