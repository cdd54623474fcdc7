//===- Telemetry.h - ATP query purpose tags ---------------------*- C++ -*-===//
//
// Part of the PEC reproduction of Kundu, Tatlock & Lerner, PLDI 2009.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `pec::telemetry`: the query-purpose tags. `PurposeScope` tags a dynamic
/// extent with the purpose of the ATP queries issued inside it (path
/// pruning, proof obligation, permute condition, strengthening, minimize),
/// and `Atp` attributes query counts and time per purpose in `AtpStats`,
/// the `atp_query_us` histograms and the `purpose` attr of each
/// `atp.query` span. Always on: the cost is two thread-local accesses per
/// scope. Spans, instants and the journal live in `pec::trace`
/// (support/Trace.h); see docs/OBSERVABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef PEC_SUPPORT_TELEMETRY_H
#define PEC_SUPPORT_TELEMETRY_H

#include <cstddef>
#include <cstdint>

namespace pec {
namespace telemetry {

/// Why the pipeline issued a theorem-prover query. Kept in sync with
/// `purposeName` and the `by_purpose` report schema.
enum class Purpose : uint8_t {
  Other = 0,        ///< Untagged queries.
  PathPruning,      ///< Joint-feasibility checks discarding path pairs.
  Obligation,       ///< First validity check of a simulation constraint.
  PermuteCondition, ///< The five Permute Theorem conditions.
  Strengthening,    ///< Re-checks after a predicate was strengthened.
  Minimize,         ///< Diagnosis: obligation-minimizer re-queries.
};
constexpr size_t NumPurposes = 6;

/// Stable lower-case name of \p P ("path-pruning", "obligation", ...).
const char *purposeName(Purpose P);

/// RAII: tags the current thread's dynamic extent with a query purpose.
class PurposeScope {
public:
  explicit PurposeScope(Purpose P);
  ~PurposeScope();
  PurposeScope(const PurposeScope &) = delete;
  PurposeScope &operator=(const PurposeScope &) = delete;

private:
  Purpose Saved;
};

/// The purpose currently tagged on this thread (Other by default).
Purpose currentPurpose();

} // namespace telemetry
} // namespace pec

#endif // PEC_SUPPORT_TELEMETRY_H
