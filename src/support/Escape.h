//===- Escape.h - Shared string escapers ------------------------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one escaping module every serializer shares. JSON escaping is used
/// by the journal and Chrome-trace writers, the log, the pec-report
/// renderer, and the diagnosis objects; DOT escaping by the `pec explain
/// --dot` CFG export.
/// Keeping both here (instead of per-writer copies) means a hostile rule
/// name that breaks one output format is a bug in exactly one place.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SUPPORT_ESCAPE_H
#define PEC_SUPPORT_ESCAPE_H

#include <string>

namespace pec {

/// Escapes \p S for embedding in a JSON string literal (no quotes added):
/// backslash-escapes quotes and control characters, \uXXXX for the rest of
/// the C0 range.
std::string escapeJson(const std::string &S);

/// Escapes \p S for embedding in a double-quoted Graphviz DOT string (no
/// quotes added): escapes `"` and `\`, and turns newlines into the DOT
/// left-justified line break `\l`. Other control characters are dropped
/// (DOT has no \uXXXX form).
std::string escapeDot(const std::string &S);

} // namespace pec

#endif // PEC_SUPPORT_ESCAPE_H
