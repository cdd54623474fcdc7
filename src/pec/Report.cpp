//===- Report.cpp - Machine-readable proof reports --------------------------------===//

#include "pec/Report.h"

#include "support/Escape.h"
#include "support/Metrics.h"
#include "support/Telemetry.h"

#include <cinttypes>
#include <cstdio>
#include <thread>

using namespace pec;
using telemetry::NumPurposes;
using telemetry::Purpose;
using telemetry::purposeName;

namespace {

void appendKey(std::string &Out, const char *Key) {
  Out += '"';
  Out += Key;
  Out += "\":";
}

void appendString(std::string &Out, const char *Key, const std::string &V) {
  appendKey(Out, Key);
  Out += '"';
  Out += escapeJson(V);
  Out += '"';
}

void appendUint(std::string &Out, const char *Key, uint64_t V) {
  appendKey(Out, Key);
  Out += std::to_string(V);
}

void appendBool(std::string &Out, const char *Key, bool V) {
  appendKey(Out, Key);
  Out += V ? "true" : "false";
}

void appendSeconds(std::string &Out, const char *Key, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  appendKey(Out, Key);
  Out += Buf;
}

void appendAtp(std::string &Out, const AtpStats &S) {
  appendKey(Out, "atp");
  Out += '{';
  appendUint(Out, "queries", S.Queries);
  Out += ',';
  appendUint(Out, "microseconds", S.Microseconds);
  Out += ',';
  appendUint(Out, "theory_checks", S.TheoryChecks);
  Out += ',';
  appendUint(Out, "theory_conflicts", S.TheoryConflicts);
  Out += ',';
  appendUint(Out, "theory_propagations", S.TheoryPropagations);
  Out += ',';
  appendUint(Out, "theory_pops", S.TheoryPops);
  Out += ',';
  appendUint(Out, "sat_conflicts", S.SatConflicts);
  Out += ',';
  appendUint(Out, "sat_decisions", S.SatDecisions);
  Out += ',';
  appendUint(Out, "propagations", S.Propagations);
  Out += ',';
  appendUint(Out, "restarts", S.Restarts);
  Out += ',';
  appendUint(Out, "learned_clauses", S.LearnedClauses);
  Out += ',';
  appendUint(Out, "deleted_clauses", S.DeletedClauses);
  Out += ',';
  appendUint(Out, "assumption_solves", S.AssumptionSolves);
  Out += ',';
  appendUint(Out, "assumption_cores", S.AssumptionCores);
  Out += ',';
  appendUint(Out, "core_literals", S.CoreLiterals);
  Out += ',';
  appendKey(Out, "by_purpose");
  Out += '{';
  for (size_t P = 0; P < NumPurposes; ++P) {
    if (P)
      Out += ',';
    appendKey(Out, purposeName(static_cast<Purpose>(P)));
    Out += '{';
    appendUint(Out, "queries", S.ByPurpose[P].Queries);
    Out += ',';
    appendUint(Out, "microseconds", S.ByPurpose[P].Microseconds);
    Out += '}';
  }
  Out += "}}";
}

void appendStringArray(std::string &Out, const char *Key,
                       const std::vector<std::string> &Vs) {
  appendKey(Out, Key);
  Out += '[';
  for (size_t I = 0; I < Vs.size(); ++I) {
    if (I)
      Out += ',';
    Out += '"';
    Out += escapeJson(Vs[I]);
    Out += '"';
  }
  Out += ']';
}

void appendDiagnosis(std::string &Out, const FailureDiagnosis &D) {
  appendKey(Out, "diagnosis");
  Out += '{';
  appendString(Out, "kind", failureKindName(D.Kind));
  Out += ',';
  appendKey(Out, "l1");
  Out += D.L1 == InvalidLocation ? "-1" : std::to_string(D.L1);
  Out += ',';
  appendKey(Out, "l2");
  Out += D.L2 == InvalidLocation ? "-1" : std::to_string(D.L2);
  Out += ',';
  appendUint(Out, "mover_side", static_cast<uint64_t>(D.MoverSide));
  Out += ',';
  appendString(Out, "entry_predicate", D.EntryPredicate);
  Out += ',';
  appendString(Out, "obligation", D.Obligation);
  Out += ',';
  appendString(Out, "minimized_obligation", D.MinimizedObligation);
  Out += ',';
  appendUint(Out, "obligation_conjuncts", D.ObligationConjuncts);
  Out += ',';
  appendUint(Out, "minimized_conjuncts", D.MinimizedConjuncts);
  Out += ',';
  appendUint(Out, "minimizer_queries", D.MinimizerQueries);
  Out += ',';
  appendKey(Out, "model");
  Out += '{';
  appendBool(Out, "complete", D.Model.Complete);
  Out += ',';
  appendKey(Out, "values");
  Out += '[';
  for (size_t I = 0; I < D.Model.Values.size(); ++I) {
    if (I)
      Out += ',';
    Out += '{';
    appendString(Out, "term", D.Model.Values[I].Term);
    Out += ',';
    appendKey(Out, "value");
    Out += std::to_string(D.Model.Values[I].Value);
    Out += '}';
  }
  Out += "],";
  appendStringArray(Out, "literals", D.Model.Literals);
  Out += "},";
  appendStringArray(Out, "assumed_facts", D.AssumedFacts);
  Out += ',';
  appendStringArray(Out, "strengthening_trail", D.StrengtheningTrail);
  Out += '}';
}


/// One serialized histogram: summary percentiles plus the sparse
/// `[lower_bound, count]` bucket array (only non-empty buckets).
void appendHistogram(std::string &Out, const metrics::HistogramSnapshot &H) {
  Out += '{';
  appendUint(Out, "count", H.Count);
  Out += ',';
  appendUint(Out, "sum", H.Sum);
  Out += ',';
  appendUint(Out, "max", H.Max);
  Out += ',';
  appendUint(Out, "p50", H.percentile(0.50));
  Out += ',';
  appendUint(Out, "p90", H.percentile(0.90));
  Out += ',';
  appendUint(Out, "p99", H.percentile(0.99));
  Out += ',';
  appendKey(Out, "buckets");
  Out += '[';
  bool First = true;
  for (unsigned B = 0; B < metrics::NumBuckets; ++B) {
    if (!H.Buckets[B])
      continue;
    if (!First)
      Out += ',';
    First = false;
    Out += '[';
    Out += std::to_string(metrics::bucketLowerBound(B));
    Out += ',';
    Out += std::to_string(H.Buckets[B]);
    Out += ']';
  }
  Out += "]}";
}

/// The v4 `metrics` section: the registry snapshot. `atp_query_us` nests
/// the per-purpose slices (keyed like `atp.by_purpose`); the other
/// histograms and the counters are flat.
void appendMetrics(std::string &Out, const metrics::Snapshot &S) {
  appendKey(Out, "metrics");
  Out += '{';
  appendKey(Out, "atp_query_us");
  Out += '{';
  for (size_t P = 0; P < NumPurposes; ++P) {
    if (P)
      Out += ',';
    appendKey(Out, purposeName(static_cast<Purpose>(P)));
    appendHistogram(Out,
                    S.hist(metrics::atpQueryHist(static_cast<Purpose>(P))));
  }
  Out += "},";
  for (metrics::Hist H :
       {metrics::Hist::RuleProveUs, metrics::Hist::CacheWaitUs,
        metrics::Hist::PoolTaskUs, metrics::Hist::SatConflictSize,
        metrics::Hist::TheoryConflictSize}) {
    appendKey(Out, metrics::histName(H));
    appendHistogram(Out, S.hist(H));
    Out += ',';
  }
  appendKey(Out, "counters");
  Out += '{';
  for (size_t C = 0; C < metrics::NumCounters; ++C) {
    if (C)
      Out += ',';
    appendUint(Out, metrics::counterName(static_cast<metrics::Counter>(C)),
               S.Counters[C]);
  }
  Out += "}}";
}

void appendRule(std::string &Out, const RuleReport &R) {
  const PecResult &P = R.Result;
  Out += '{';
  appendString(Out, "name", R.Name);
  Out += ',';
  appendBool(Out, "proved", P.Proved);
  Out += ',';
  appendString(Out, "method", P.UsedPermute ? "permute" : "bisimulation");
  Out += ',';
  appendString(Out, "failure_reason", failureKindName(P.Kind));
  Out += ',';
  appendString(Out, "failure_detail", P.FailureReason);
  Out += ',';
  if (!P.Proved && P.Diagnosis) {
    appendDiagnosis(Out, *P.Diagnosis);
    Out += ',';
  }
  appendSeconds(Out, "seconds", P.Seconds);
  Out += ',';
  appendKey(Out, "phases");
  Out += '{';
  appendSeconds(Out, "permute_seconds", P.PermuteSeconds);
  Out += ',';
  appendSeconds(Out, "correlate_seconds", P.CorrelateSeconds);
  Out += ',';
  appendSeconds(Out, "check_seconds", P.CheckSeconds);
  Out += "},";
  appendUint(Out, "strengthenings", P.Strengthenings);
  Out += ',';
  appendUint(Out, "relation_size", P.RelationSize);
  Out += ',';
  appendUint(Out, "path_pairs", P.PathPairs);
  Out += ',';
  appendUint(Out, "pruned_path_pairs", P.PrunedPathPairs);
  Out += ',';
  appendAtp(Out, P.Atp);
  Out += '}';
}

} // namespace

std::string pec::renderJsonReport(const std::string &Command,
                                  const std::vector<RuleReport> &Rules,
                                  const RunInfo *Run) {
  uint64_t Proved = 0, AtpQueries = 0, AtpMicros = 0;
  double Seconds = 0;
  for (const RuleReport &R : Rules) {
    Proved += R.Result.Proved ? 1 : 0;
    AtpQueries += R.Result.Atp.Queries;
    AtpMicros += R.Result.Atp.Microseconds;
    Seconds += R.Result.Seconds;
  }

  // Sequential, uncached default when the caller supplies no run context;
  // the metrics section still reflects whatever the process recorded.
  RunInfo Sequential;
  if (!Run) {
    Sequential.HardwareConcurrency = std::thread::hardware_concurrency();
    Sequential.WallSeconds = Seconds;
    Sequential.Metrics = metrics::snapshot();
    Run = &Sequential;
  }

  std::string Out = "{";
  appendString(Out, "schema", "pec-report-v6");
  Out += ',';
  appendString(Out, "command", Command);
  Out += ',';
  appendKey(Out, "parallelism");
  Out += '{';
  appendUint(Out, "jobs", Run->Jobs);
  Out += ',';
  appendUint(Out, "hardware_concurrency", Run->HardwareConcurrency);
  Out += ',';
  appendSeconds(Out, "wall_seconds", Run->WallSeconds);
  Out += ',';
  // Summed per-rule wall-clock; wall_seconds / rule_seconds < 1 is the
  // parallel speedup achieved by the run.
  appendSeconds(Out, "rule_seconds", Seconds);
  Out += "},";
  appendKey(Out, "cache");
  Out += '{';
  appendBool(Out, "enabled", Run->CacheEnabled);
  Out += ',';
  appendUint(Out, "hits", Run->Cache.Hits);
  Out += ',';
  appendUint(Out, "misses", Run->Cache.Misses);
  Out += ',';
  appendUint(Out, "insertions", Run->Cache.Insertions);
  Out += ',';
  appendUint(Out, "evictions", Run->Cache.Evictions);
  Out += ',';
  appendUint(Out, "model_bypasses", Run->Cache.ModelBypasses);
  Out += ',';
  appendUint(Out, "entries", Run->Cache.Entries);
  Out += ',';
  // v5 persistent-store counters (deterministically zero for runs
  // without --cache-dir). The wait count is deliberately absent: how
  // often threads blocked on in-flight entries is pure scheduling.
  appendUint(Out, "disk_hits", Run->Cache.DiskHits);
  Out += ',';
  appendUint(Out, "disk_entries", Run->Cache.DiskEntries);
  Out += ',';
  appendUint(Out, "load_ms", Run->Cache.LoadMicros / 1000);
  Out += ',';
  appendUint(Out, "checkpoint_ms", Run->Cache.CheckpointMicros / 1000);
  Out += ',';
  appendSeconds(Out, "hit_rate", Run->Cache.hitRate());
  Out += "},";
  appendMetrics(Out, Run->Metrics);
  Out += ',';
  appendKey(Out, "rules");
  Out += "[\n";
  for (size_t I = 0; I < Rules.size(); ++I) {
    if (I)
      Out += ",\n";
    appendRule(Out, Rules[I]);
  }
  Out += "\n],";
  appendKey(Out, "totals");
  Out += '{';
  appendUint(Out, "rules", Rules.size());
  Out += ',';
  appendUint(Out, "proved", Proved);
  Out += ',';
  appendUint(Out, "failed", Rules.size() - Proved);
  Out += ',';
  appendSeconds(Out, "seconds", Seconds);
  Out += ',';
  appendUint(Out, "atp_queries", AtpQueries);
  Out += ',';
  appendUint(Out, "atp_microseconds", AtpMicros);
  Out += "}}\n";
  return Out;
}

std::string pec::renderStatsTable(const std::vector<RuleReport> &Rules) {
  std::string Out;
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "%-30s %-7s %8s %8s %8s %8s | %6s %6s %6s %6s %6s %6s | "
                "%5s\n",
                "rule", "proved", "total_s", "perm_s", "corr_s", "check_s",
                "prune", "oblig", "perm", "stren", "mini", "other", "iter");
  Out += Line;
  Out += std::string(127, '-');
  Out += '\n';

  auto PurposeCount = [](const PecResult &P, Purpose Which) {
    return P.Atp.ByPurpose[static_cast<size_t>(Which)].Queries;
  };

  PecResult Total;
  Total.Proved = true;
  for (const RuleReport &R : Rules) {
    const PecResult &P = R.Result;
    std::snprintf(
        Line, sizeof(Line),
        "%-30s %-7s %8.3f %8.3f %8.3f %8.3f | %6" PRIu64 " %6" PRIu64
        " %6" PRIu64 " %6" PRIu64 " %6" PRIu64 " %6" PRIu64 " | %5u\n",
        R.Name.c_str(), P.Proved ? "yes" : "NO", P.Seconds,
        P.PermuteSeconds, P.CorrelateSeconds, P.CheckSeconds,
        PurposeCount(P, Purpose::PathPruning),
        PurposeCount(P, Purpose::Obligation),
        PurposeCount(P, Purpose::PermuteCondition),
        PurposeCount(P, Purpose::Strengthening),
        PurposeCount(P, Purpose::Minimize),
        PurposeCount(P, Purpose::Other), P.Strengthenings);
    Out += Line;

    Total.Proved = Total.Proved && P.Proved;
    Total.Seconds += P.Seconds;
    Total.PermuteSeconds += P.PermuteSeconds;
    Total.CorrelateSeconds += P.CorrelateSeconds;
    Total.CheckSeconds += P.CheckSeconds;
    Total.Strengthenings += P.Strengthenings;
    Total.Atp.Queries += P.Atp.Queries;
    Total.Atp.Microseconds += P.Atp.Microseconds;
    for (size_t I = 0; I < NumPurposes; ++I) {
      Total.Atp.ByPurpose[I].Queries += P.Atp.ByPurpose[I].Queries;
      Total.Atp.ByPurpose[I].Microseconds += P.Atp.ByPurpose[I].Microseconds;
    }
  }
  Out += std::string(127, '-');
  Out += '\n';
  std::snprintf(
      Line, sizeof(Line),
      "%-30s %-7s %8.3f %8.3f %8.3f %8.3f | %6" PRIu64 " %6" PRIu64
      " %6" PRIu64 " %6" PRIu64 " %6" PRIu64 " %6" PRIu64 " | %5u\n",
      "TOTAL", Total.Proved ? "yes" : "NO", Total.Seconds,
      Total.PermuteSeconds, Total.CorrelateSeconds, Total.CheckSeconds,
      PurposeCount(Total, Purpose::PathPruning),
      PurposeCount(Total, Purpose::Obligation),
      PurposeCount(Total, Purpose::PermuteCondition),
      PurposeCount(Total, Purpose::Strengthening),
      PurposeCount(Total, Purpose::Minimize),
      PurposeCount(Total, Purpose::Other), Total.Strengthenings);
  Out += Line;
  std::snprintf(Line, sizeof(Line),
                "%" PRIu64 " ATP queries, %.3fs inside the ATP\n",
                Total.Atp.Queries,
                static_cast<double>(Total.Atp.Microseconds) / 1e6);
  Out += Line;
  return Out;
}

std::string pec::renderCacheStatsTable(const AtpCacheStats &C) {
  std::string Out;
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "atp cache: %.1f%% hit rate (%" PRIu64 " hits / %" PRIu64
                " lookups)\n",
                100.0 * C.hitRate(), C.Hits, C.Hits + C.Misses);
  Out += Line;
  auto Row = [&](const char *Label, uint64_t V) {
    std::snprintf(Line, sizeof(Line), "  %-22s %10" PRIu64 "\n", Label, V);
    Out += Line;
  };
  Row("memory hits", C.Hits - C.DiskHits);
  Row("disk hits", C.DiskHits);
  Row("misses", C.Misses);
  Row("single-flight waits", C.Waits);
  Row("model bypasses", C.ModelBypasses);
  Row("insertions", C.Insertions);
  Row("evictions", C.Evictions);
  std::snprintf(Line, sizeof(Line),
                "  %-22s %10" PRIu64 "  (%" PRIu64 " from disk)\n",
                "resident entries", C.Entries, C.DiskEntries);
  Out += Line;
  std::snprintf(Line, sizeof(Line),
                "  %-22s %7.1f ms load, %.1f ms checkpoints\n", "store",
                static_cast<double>(C.LoadMicros) / 1000.0,
                static_cast<double>(C.CheckpointMicros) / 1000.0);
  Out += Line;
  return Out;
}

//===----------------------------------------------------------------------===//
// Schema validation
//===----------------------------------------------------------------------===//

namespace {

bool failV(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
  return false;
}

/// Requires member \p Key of kind \p K on object \p Obj.
bool requireField(const json::ValuePtr &Obj, const std::string &Path,
                  const char *Key, json::Kind K, std::string *Error) {
  json::ValuePtr V = Obj->get(Key);
  if (!V)
    return failV(Error, Path + ": missing field '" + Key + "'");
  if (V->kind() != K)
    return failV(Error, Path + ": field '" + Key + "' has the wrong type");
  return true;
}

bool validatePurposeStats(const json::ValuePtr &V, const std::string &Path,
                          std::string *Error) {
  return requireField(V, Path, "queries", json::Kind::Number, Error) &&
         requireField(V, Path, "microseconds", json::Kind::Number, Error);
}

bool validateAtp(const json::ValuePtr &Atp, const std::string &Path,
                 int Version, std::string *Error) {
  for (const char *Key :
       {"queries", "microseconds", "theory_checks", "theory_conflicts",
        "sat_conflicts", "sat_decisions", "propagations"})
    if (!requireField(Atp, Path, Key, json::Kind::Number, Error))
      return false;
  // Solver counters added mid-v3 (restarts, learned/deleted clauses,
  // assumption solves, online theory propagation, assumption-level unsat
  // cores) are additive: older v3 documents lack them, so they are only
  // type-checked when present.
  for (const char *Key :
       {"restarts", "learned_clauses", "deleted_clauses",
        "assumption_solves", "theory_propagations", "theory_pops",
        "assumption_cores", "core_literals"}) {
    json::ValuePtr V = Atp->get(Key);
    if (V && !V->isNumber())
      return failV(Error, Path + ": field '" + std::string(Key) +
                              "' has the wrong type");
  }
  if (!requireField(Atp, Path, "by_purpose", json::Kind::Object, Error))
    return false;
  json::ValuePtr ByPurpose = Atp->get("by_purpose");
  for (size_t P = 0; P < NumPurposes; ++P) {
    // The `minimize` slice is a v2 addition; v1 documents predate it.
    if (Version < 2 && static_cast<Purpose>(P) == Purpose::Minimize)
      continue;
    const char *Name = purposeName(static_cast<Purpose>(P));
    json::ValuePtr Slice = ByPurpose->get(Name);
    if (!Slice || !Slice->isObject())
      return failV(Error, Path + ".by_purpose: missing purpose '" +
                              std::string(Name) + "'");
    if (!validatePurposeStats(Slice, Path + ".by_purpose." + Name, Error))
      return false;
  }
  return true;
}

bool validateDiagnosis(const json::ValuePtr &D, const std::string &Path,
                       std::string *Error) {
  if (!requireField(D, Path, "kind", json::Kind::String, Error) ||
      !requireField(D, Path, "l1", json::Kind::Number, Error) ||
      !requireField(D, Path, "l2", json::Kind::Number, Error) ||
      !requireField(D, Path, "mover_side", json::Kind::Number, Error) ||
      !requireField(D, Path, "entry_predicate", json::Kind::String, Error) ||
      !requireField(D, Path, "obligation", json::Kind::String, Error) ||
      !requireField(D, Path, "minimized_obligation", json::Kind::String,
                    Error) ||
      !requireField(D, Path, "obligation_conjuncts", json::Kind::Number,
                    Error) ||
      !requireField(D, Path, "minimized_conjuncts", json::Kind::Number,
                    Error) ||
      !requireField(D, Path, "minimizer_queries", json::Kind::Number,
                    Error) ||
      !requireField(D, Path, "model", json::Kind::Object, Error) ||
      !requireField(D, Path, "assumed_facts", json::Kind::Array, Error) ||
      !requireField(D, Path, "strengthening_trail", json::Kind::Array,
                    Error))
    return false;
  const std::string &Kind = D->get("kind")->stringValue();
  if (Kind.empty() || failureKindFromName(Kind) == FailureKind::None)
    return failV(Error, Path + ": unknown diagnosis kind '" + Kind + "'");
  if (D->get("minimized_conjuncts")->numberValue() >
      D->get("obligation_conjuncts")->numberValue())
    return failV(Error,
                 Path + ": minimized_conjuncts exceeds obligation_conjuncts");
  json::ValuePtr Model = D->get("model");
  if (!requireField(Model, Path + ".model", "complete", json::Kind::Bool,
                    Error) ||
      !requireField(Model, Path + ".model", "values", json::Kind::Array,
                    Error) ||
      !requireField(Model, Path + ".model", "literals", json::Kind::Array,
                    Error))
    return false;
  const auto &Values = Model->get("values")->array();
  for (size_t I = 0; I < Values.size(); ++I) {
    std::string VPath = Path + ".model.values[" + std::to_string(I) + "]";
    if (!Values[I]->isObject())
      return failV(Error, VPath + ": model values must be objects");
    if (!requireField(Values[I], VPath, "term", json::Kind::String, Error) ||
        !requireField(Values[I], VPath, "value", json::Kind::Number, Error))
      return false;
  }
  return true;
}

bool validateRule(const json::ValuePtr &Rule, const std::string &Path,
                  int Version, std::string *Error) {
  if (!Rule->isObject())
    return failV(Error, Path + ": rule entries must be objects");
  if (!requireField(Rule, Path, "name", json::Kind::String, Error) ||
      !requireField(Rule, Path, "proved", json::Kind::Bool, Error) ||
      !requireField(Rule, Path, "method", json::Kind::String, Error) ||
      !requireField(Rule, Path, "failure_reason", json::Kind::String,
                    Error) ||
      !requireField(Rule, Path, "seconds", json::Kind::Number, Error) ||
      !requireField(Rule, Path, "phases", json::Kind::Object, Error) ||
      !requireField(Rule, Path, "strengthenings", json::Kind::Number,
                    Error) ||
      !requireField(Rule, Path, "relation_size", json::Kind::Number,
                    Error) ||
      !requireField(Rule, Path, "path_pairs", json::Kind::Number, Error) ||
      !requireField(Rule, Path, "pruned_path_pairs", json::Kind::Number,
                    Error) ||
      !requireField(Rule, Path, "atp", json::Kind::Object, Error))
    return false;
  const std::string &Method = Rule->get("method")->stringValue();
  if (Method != "permute" && Method != "bisimulation")
    return failV(Error, Path + ": method must be 'permute' or "
                                "'bisimulation'");
  if (Version >= 2) {
    // v2: failure_reason is a taxonomy slug (empty for proved rules), the
    // free text lives in failure_detail, and failed rules may carry a
    // structured diagnosis.
    if (!requireField(Rule, Path, "failure_detail", json::Kind::String,
                      Error))
      return false;
    const std::string &Reason = Rule->get("failure_reason")->stringValue();
    if (!Reason.empty() && failureKindFromName(Reason) == FailureKind::None)
      return failV(Error,
                   Path + ": unknown failure_reason '" + Reason + "'");
    if (Rule->get("proved")->boolValue() && !Reason.empty())
      return failV(Error, Path + ": proved rule has a failure_reason");
    if (json::ValuePtr D = Rule->get("diagnosis")) {
      if (!D->isObject())
        return failV(Error, Path + ": diagnosis must be an object");
      if (Rule->get("proved")->boolValue())
        return failV(Error, Path + ": proved rule has a diagnosis");
      if (!validateDiagnosis(D, Path + ".diagnosis", Error))
        return false;
    }
  }
  json::ValuePtr Phases = Rule->get("phases");
  for (const char *Key :
       {"permute_seconds", "correlate_seconds", "check_seconds"})
    if (!requireField(Phases, Path + ".phases", Key, json::Kind::Number,
                      Error))
      return false;
  return validateAtp(Rule->get("atp"), Path + ".atp", Version, Error);
}

} // namespace

bool pec::validateReport(const json::ValuePtr &Report, std::string *Error) {
  if (!Report || !Report->isObject())
    return failV(Error, "report: not a JSON object");
  if (!requireField(Report, "report", "schema", json::Kind::String, Error))
    return false;
  const std::string &Schema = Report->get("schema")->stringValue();
  int Version;
  if (Schema == "pec-report-v1")
    Version = 1;
  else if (Schema == "pec-report-v2")
    Version = 2;
  else if (Schema == "pec-report-v3")
    Version = 3;
  else if (Schema == "pec-report-v4")
    Version = 4;
  else if (Schema == "pec-report-v5")
    Version = 5;
  else if (Schema == "pec-report-v6")
    Version = 6;
  else
    return failV(Error, "report: unknown schema '" + Schema + "'");

  if (Version >= 3) {
    // v3: run-level parallelism and ATP-cache sections are mandatory.
    if (!requireField(Report, "report", "parallelism", json::Kind::Object,
                      Error) ||
        !requireField(Report, "report", "cache", json::Kind::Object, Error))
      return false;
    json::ValuePtr Par = Report->get("parallelism");
    for (const char *Key :
         {"jobs", "hardware_concurrency", "wall_seconds", "rule_seconds"})
      if (!requireField(Par, "parallelism", Key, json::Kind::Number, Error))
        return false;
    if (Par->get("jobs")->numberValue() < 1)
      return failV(Error, "parallelism: jobs must be at least 1");
    json::ValuePtr Cache = Report->get("cache");
    if (!requireField(Cache, "cache", "enabled", json::Kind::Bool, Error))
      return false;
    for (const char *Key : {"hits", "misses", "insertions", "evictions",
                            "model_bypasses", "entries", "hit_rate"})
      if (!requireField(Cache, "cache", Key, json::Kind::Number, Error))
        return false;
    if (Version >= 5)
      // v5: the persistent-store split (docs/SERVING.md).
      for (const char *Key :
           {"disk_hits", "disk_entries", "load_ms", "checkpoint_ms"})
        if (!requireField(Cache, "cache", Key, json::Kind::Number, Error))
          return false;
  }
  if (Version >= 4) {
    // v4: the pec::metrics snapshot. Every histogram object carries the
    // percentile summary; the per-purpose ATP latency slices are the
    // acceptance-critical part, so each purpose must be present.
    if (!requireField(Report, "report", "metrics", json::Kind::Object,
                      Error))
      return false;
    json::ValuePtr Metrics = Report->get("metrics");
    if (!requireField(Metrics, "metrics", "atp_query_us", json::Kind::Object,
                      Error) ||
        !requireField(Metrics, "metrics", "counters", json::Kind::Object,
                      Error))
      return false;
    auto ValidateHistogram = [&](const json::ValuePtr &H,
                                 const std::string &Path) {
      for (const char *Key : {"count", "sum", "max", "p50", "p90", "p99"})
        if (!requireField(H, Path, Key, json::Kind::Number, Error))
          return false;
      return requireField(H, Path, "buckets", json::Kind::Array, Error);
    };
    json::ValuePtr ByPurpose = Metrics->get("atp_query_us");
    for (size_t P = 0; P < NumPurposes; ++P) {
      const char *Name = purposeName(static_cast<Purpose>(P));
      json::ValuePtr Slice = ByPurpose->get(Name);
      if (!Slice || !Slice->isObject())
        return failV(Error, "metrics.atp_query_us: missing purpose '" +
                                std::string(Name) + "'");
      if (!ValidateHistogram(Slice,
                             "metrics.atp_query_us." + std::string(Name)))
        return false;
    }
    for (const char *Key :
         {"rule_prove_us", "cache_wait_us", "pool_task_us",
          "sat_conflict_size", "theory_conflict_size"}) {
      if (!requireField(Metrics, "metrics", Key, json::Kind::Object, Error))
        return false;
      if (!ValidateHistogram(Metrics->get(Key),
                             "metrics." + std::string(Key)))
        return false;
    }
  }
  if (!requireField(Report, "report", "command", json::Kind::String,
                    Error) ||
      !requireField(Report, "report", "rules", json::Kind::Array, Error) ||
      !requireField(Report, "report", "totals", json::Kind::Object, Error))
    return false;

  const auto &Rules = Report->get("rules")->array();
  for (size_t I = 0; I < Rules.size(); ++I)
    if (!validateRule(Rules[I], "rules[" + std::to_string(I) + "]", Version,
                      Error))
      return false;

  json::ValuePtr Totals = Report->get("totals");
  for (const char *Key : {"rules", "proved", "failed", "seconds",
                          "atp_queries", "atp_microseconds"})
    if (!requireField(Totals, "totals", Key, json::Kind::Number, Error))
      return false;

  // Cross-check: the totals row must agree with the per-rule entries (the
  // acceptance criterion that the JSON matches the human-readable output).
  uint64_t Proved = 0, Queries = 0;
  for (const json::ValuePtr &Rule : Rules) {
    Proved += Rule->get("proved")->boolValue() ? 1 : 0;
    Queries +=
        static_cast<uint64_t>(Rule->get("atp")->get("queries")->numberValue());
  }
  if (static_cast<uint64_t>(Totals->get("rules")->numberValue()) !=
      Rules.size())
    return failV(Error, "totals.rules disagrees with the rules array");
  if (static_cast<uint64_t>(Totals->get("proved")->numberValue()) != Proved)
    return failV(Error, "totals.proved disagrees with the rules array");
  if (static_cast<uint64_t>(Totals->get("atp_queries")->numberValue()) !=
      Queries)
    return failV(Error, "totals.atp_queries disagrees with the rules array");
  return true;
}

//===----------------------------------------------------------------------===//
// Report diffing (the `pec report diff` regression gate)
//===----------------------------------------------------------------------===//

namespace {

struct RuleFacts {
  bool Proved = false;
  double Seconds = 0;
  uint64_t AtpQueries = 0;
  uint64_t StrengtheningMicros = 0;
  uint64_t StrengtheningQueries = 0;
  std::string FailureReason;
};

/// Indexes a validated report's rules array by rule name.
std::map<std::string, RuleFacts> indexRules(const json::ValuePtr &Report) {
  std::map<std::string, RuleFacts> Out;
  for (const json::ValuePtr &Rule : Report->get("rules")->array()) {
    RuleFacts F;
    F.Proved = Rule->get("proved")->boolValue();
    F.Seconds = Rule->get("seconds")->numberValue();
    F.AtpQueries = static_cast<uint64_t>(
        Rule->get("atp")->get("queries")->numberValue());
    // Present in every validated version (the slice predates v1's
    // minimize addition), but guard anyway: diff inputs are arbitrary
    // user files.
    if (json::ValuePtr Slice =
            Rule->get("atp")->get("by_purpose")->get("strengthening")) {
      F.StrengtheningQueries =
          static_cast<uint64_t>(Slice->get("queries")->numberValue());
      F.StrengtheningMicros =
          static_cast<uint64_t>(Slice->get("microseconds")->numberValue());
    }
    F.FailureReason = Rule->get("failure_reason")->stringValue();
    Out.emplace(Rule->get("name")->stringValue(), std::move(F));
  }
  return Out;
}

std::string fmtSeconds(double S) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3fs", S);
  return Buf;
}

} // namespace

ReportDiff pec::diffReports(const json::ValuePtr &Old,
                            const json::ValuePtr &New,
                            const ReportDiffOptions &Options) {
  ReportDiff D;

  // Schema drift is directional: a baseline on an OLDER schema is expected
  // while the tree evolves (upgrade note, suggest regenerating), but a new
  // report on an older schema than its baseline means the producer was
  // rolled back — that is a regression.
  auto SchemaVersion = [](const std::string &S) {
    if (S == "pec-report-v1")
      return 1;
    if (S == "pec-report-v2")
      return 2;
    if (S == "pec-report-v3")
      return 3;
    if (S == "pec-report-v4")
      return 4;
    if (S == "pec-report-v5")
      return 5;
    if (S == "pec-report-v6")
      return 6;
    return 0;
  };
  const std::string &OldSchema = Old->get("schema")->stringValue();
  const std::string &NewSchema = New->get("schema")->stringValue();
  int OldVersion = SchemaVersion(OldSchema);
  int NewVersion = SchemaVersion(NewSchema);
  if (NewVersion < OldVersion)
    D.Regressions.push_back("schema downgrade: baseline is '" + OldSchema +
                            "', new report is '" + NewSchema +
                            "' (the report producer regressed)");
  else if (NewVersion > OldVersion)
    D.Notes.push_back("schema upgraded: baseline is '" + OldSchema +
                      "', new report is '" + NewSchema +
                      "' (regenerate the baseline)");

  std::map<std::string, RuleFacts> OldRules = indexRules(Old);
  std::map<std::string, RuleFacts> NewRules = indexRules(New);

  for (const auto &[Name, OldF] : OldRules) {
    auto It = NewRules.find(Name);
    if (It == NewRules.end()) {
      D.Regressions.push_back("rule '" + Name +
                              "' disappeared from the new report");
      continue;
    }
    const RuleFacts &NewF = It->second;

    if (OldF.Proved && !NewF.Proved)
      D.Regressions.push_back(
          "rule '" + Name + "' regressed: proved -> NOT proved (" +
          (NewF.FailureReason.empty() ? std::string("unspecified")
                                      : NewF.FailureReason) +
          ")");
    else if (!OldF.Proved && NewF.Proved)
      D.Notes.push_back("rule '" + Name + "' improved: NOT proved -> proved");

    // A metric regresses only past BOTH the factor and the absolute slack.
    bool TimeRegressed =
        NewF.Seconds > OldF.Seconds * Options.TimeToleranceFactor &&
        NewF.Seconds > OldF.Seconds + Options.TimeSlackSeconds;
    if (TimeRegressed)
      D.Regressions.push_back(
          "rule '" + Name + "' time regressed: " + fmtSeconds(OldF.Seconds) +
          " -> " + fmtSeconds(NewF.Seconds) + " (tolerance " +
          fmtSeconds(OldF.Seconds * Options.TimeToleranceFactor) + " + " +
          fmtSeconds(Options.TimeSlackSeconds) + " slack)");
    else if (NewF.Seconds > OldF.Seconds * Options.TimeToleranceFactor)
      D.Notes.push_back("rule '" + Name + "' time delta inside slack: " +
                        fmtSeconds(OldF.Seconds) + " -> " +
                        fmtSeconds(NewF.Seconds));

    double QueryCeiling = static_cast<double>(OldF.AtpQueries) *
                          Options.QueryToleranceFactor;
    bool QueriesRegressed =
        static_cast<double>(NewF.AtpQueries) > QueryCeiling &&
        NewF.AtpQueries > OldF.AtpQueries + Options.QuerySlack;
    if (QueriesRegressed)
      D.Regressions.push_back(
          "rule '" + Name + "' ATP queries regressed: " +
          std::to_string(OldF.AtpQueries) + " -> " +
          std::to_string(NewF.AtpQueries) + " (tolerance factor " +
          std::to_string(Options.QueryToleranceFactor) + ", slack " +
          std::to_string(Options.QuerySlack) + ")");

    // The strengthening hot path gets its own budget: total rule time can
    // hide a blow-up here behind savings elsewhere.
    bool StrengtheningTimeRegressed =
        static_cast<double>(NewF.StrengtheningMicros) >
            static_cast<double>(OldF.StrengtheningMicros) *
                Options.StrengtheningTimeToleranceFactor &&
        NewF.StrengtheningMicros >
            OldF.StrengtheningMicros + Options.StrengtheningTimeSlackMicros;
    if (StrengtheningTimeRegressed)
      D.Regressions.push_back(
          "rule '" + Name + "' strengthening time regressed: " +
          std::to_string(OldF.StrengtheningMicros) + "us -> " +
          std::to_string(NewF.StrengtheningMicros) + "us (tolerance factor " +
          std::to_string(Options.StrengtheningTimeToleranceFactor) +
          ", slack " + std::to_string(Options.StrengtheningTimeSlackMicros) +
          "us)");
    bool StrengtheningQueriesRegressed =
        static_cast<double>(NewF.StrengtheningQueries) >
            static_cast<double>(OldF.StrengtheningQueries) *
                Options.StrengtheningQueryToleranceFactor &&
        NewF.StrengtheningQueries >
            OldF.StrengtheningQueries + Options.StrengtheningQuerySlack;
    if (StrengtheningQueriesRegressed)
      D.Regressions.push_back(
          "rule '" + Name + "' strengthening queries regressed: " +
          std::to_string(OldF.StrengtheningQueries) + " -> " +
          std::to_string(NewF.StrengtheningQueries) + " (tolerance factor " +
          std::to_string(Options.StrengtheningQueryToleranceFactor) +
          ", slack " + std::to_string(Options.StrengtheningQuerySlack) + ")");
  }

  for (const auto &[Name, NewF] : NewRules) {
    (void)NewF;
    if (!OldRules.count(Name))
      D.Notes.push_back("rule '" + Name + "' is new in this report");
  }

  // v4 percentile gates (opt-in, see ReportDiffOptions): the run-level
  // per-purpose ATP latency percentiles. Skipped when either document
  // predates v4 or the slice recorded nothing.
  json::ValuePtr OldMetrics = Old->get("metrics");
  json::ValuePtr NewMetrics = New->get("metrics");
  if ((Options.P50ToleranceFactor > 0 || Options.P99ToleranceFactor > 0) &&
      OldMetrics && NewMetrics) {
    auto GatePercentile = [&](const char *PurposeKey, const char *Pct,
                              double Factor, uint64_t SlackUs) {
      if (Factor <= 0)
        return;
      json::ValuePtr OldSlice = OldMetrics->get("atp_query_us");
      json::ValuePtr NewSlice = NewMetrics->get("atp_query_us");
      if (!OldSlice || !NewSlice)
        return;
      OldSlice = OldSlice->get(PurposeKey);
      NewSlice = NewSlice->get(PurposeKey);
      if (!OldSlice || !NewSlice || !OldSlice->isObject() ||
          !NewSlice->isObject())
        return;
      json::ValuePtr OldCount = OldSlice->get("count");
      json::ValuePtr NewCount = NewSlice->get("count");
      json::ValuePtr OldPct = OldSlice->get(Pct);
      json::ValuePtr NewPct = NewSlice->get(Pct);
      if (!OldCount || !NewCount || !OldPct || !NewPct)
        return;
      if (OldCount->numberValue() == 0 || NewCount->numberValue() == 0)
        return;
      double OldP = OldPct->numberValue();
      double NewP = NewPct->numberValue();
      if (NewP > OldP * Factor &&
          NewP > OldP + static_cast<double>(SlackUs))
        D.Regressions.push_back(
            "atp_query_us{" + std::string(PurposeKey) + "} " + Pct +
            " regressed: " + std::to_string(static_cast<uint64_t>(OldP)) +
            "us -> " + std::to_string(static_cast<uint64_t>(NewP)) +
            "us (tolerance factor " + std::to_string(Factor) + ", slack " +
            std::to_string(SlackUs) + "us)");
    };
    for (size_t P = 0; P < NumPurposes; ++P) {
      const char *Name = purposeName(static_cast<Purpose>(P));
      GatePercentile(Name, "p50", Options.P50ToleranceFactor,
                     Options.P50SlackMicros);
      GatePercentile(Name, "p99", Options.P99ToleranceFactor,
                     Options.P99SlackMicros);
    }
  }

  // Warm-cache gate (opt-in, `--min-hit-rate`): the NEW report's run-level
  // hit rate must clear the floor. A warm rerun against a persistent store
  // should re-solve (miss) almost nothing; a new report that ran without
  // the cache at all fails outright so a CI lane dropping --cache-dir
  // cannot pass silently.
  if (Options.MinHitRate > 0) {
    json::ValuePtr Cache = New->get("cache");
    json::ValuePtr Enabled = Cache ? Cache->get("enabled") : nullptr;
    if (!Enabled || !Enabled->boolValue()) {
      D.Regressions.push_back(
          "cache hit-rate gate: the new report ran without the ATP cache "
          "(minimum hit rate " + std::to_string(Options.MinHitRate) + ")");
    } else {
      double Rate = Cache->get("hit_rate")->numberValue();
      char Buf[160];
      uint64_t Hits =
          static_cast<uint64_t>(Cache->get("hits")->numberValue());
      json::ValuePtr DiskHits = Cache->get("disk_hits"); // v5 only.
      uint64_t Disk = DiskHits ? static_cast<uint64_t>(DiskHits->numberValue())
                               : 0;
      std::snprintf(Buf, sizeof(Buf),
                    "cache hit rate %.3f (%" PRIu64 " hits: %" PRIu64
                    " memory, %" PRIu64 " disk)",
                    Rate, Hits, Hits - Disk, Disk);
      if (Rate < Options.MinHitRate)
        D.Regressions.push_back(std::string(Buf) + " below the minimum " +
                                std::to_string(Options.MinHitRate));
      else
        D.Notes.push_back(std::string(Buf) + " meets the minimum " +
                          std::to_string(Options.MinHitRate));
    }
  }

  uint64_t OldProved =
      static_cast<uint64_t>(Old->get("totals")->get("proved")->numberValue());
  uint64_t NewProved =
      static_cast<uint64_t>(New->get("totals")->get("proved")->numberValue());
  D.Notes.push_back("proved totals: " + std::to_string(OldProved) + " -> " +
                    std::to_string(NewProved));
  return D;
}

std::string pec::renderReportDiff(const ReportDiff &D) {
  std::string Out;
  if (D.Regressions.empty())
    Out += "report diff: OK (no regressions)\n";
  else
    Out += "report diff: " + std::to_string(D.Regressions.size()) +
           " regression(s)\n";
  for (const std::string &R : D.Regressions)
    Out += "  REGRESSION: " + R + "\n";
  for (const std::string &N : D.Notes)
    Out += "  note: " + N + "\n";
  return Out;
}
