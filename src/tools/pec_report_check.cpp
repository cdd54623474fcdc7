//===- pec_report_check.cpp - pec report schema validator ------------------------===//
//
// Runs `pec prove-suite --report json` (or reads a report file) and
// validates the output against the pec-report schema. The current
// pec-report-v6 and the legacy v1..v5 are all accepted; v2+ documents
// additionally have their failure_reason slugs, failure_detail strings
// and per-rule diagnosis objects checked, v3+ documents their
// parallelism/cache sections, v4+ documents their metrics section
// (per-purpose latency histograms with percentile summaries), and v5+
// documents their persistent-store cache fields. Backs the
// `check_bench_schema` CTest so the
// machine-readable report format — including the committed
// BENCH_figure11.json — cannot silently drift.
//
//   pec_report_check --pec <path-to-pec-binary>   run + validate live
//   pec_report_check <report.json>                validate an existing file
//
//===----------------------------------------------------------------------===//

#include "pec/Report.h"
#include "support/Json.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace pec;

namespace {

int fail(const std::string &Msg) {
  std::fprintf(stderr, "pec_report_check: %s\n", Msg.c_str());
  return 1;
}

bool runCommand(const std::string &Command, std::string &Out) {
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe)
    return false;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Out.append(Buf, N);
  return pclose(Pipe) == 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string Text;
  if (argc == 3 && std::string(argv[1]) == "--pec") {
    std::string Command =
        "\"" + std::string(argv[2]) + "\" prove-suite --report json 2>/dev/null";
    if (!runCommand(Command, Text))
      return fail("command failed: " + Command);
  } else if (argc == 2) {
    std::ifstream In(argv[1]);
    if (!In)
      return fail(std::string("cannot open '") + argv[1] + "'");
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    Text = Buffer.str();
  } else {
    std::fprintf(stderr,
                 "usage: pec_report_check --pec <pec-binary> | <report.json>\n");
    return 2;
  }

  std::string Error;
  json::ValuePtr Report = json::parse(Text, &Error);
  if (!Report)
    return fail("JSON parse error: " + Error);
  if (!validateReport(Report, &Error))
    return fail("schema violation: " + Error);

  const auto &Rules = Report->get("rules")->array();
  std::printf("%s OK: %zu rules, %.0f proved, %llu ATP queries\n",
              Report->get("schema")->stringValue().c_str(), Rules.size(),
              Report->get("totals")->get("proved")->numberValue(),
              static_cast<unsigned long long>(
                  Report->get("totals")->get("atp_queries")->numberValue()));
  return 0;
}
