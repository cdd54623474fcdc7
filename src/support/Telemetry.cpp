//===- Telemetry.cpp - ATP query purpose tags -----------------------------===//

#include "support/Telemetry.h"

using namespace pec;
using namespace pec::telemetry;

namespace {
thread_local Purpose CurrentPurpose = Purpose::Other;
} // namespace

const char *telemetry::purposeName(Purpose P) {
  switch (P) {
  case Purpose::Other:
    return "other";
  case Purpose::PathPruning:
    return "path-pruning";
  case Purpose::Obligation:
    return "obligation";
  case Purpose::PermuteCondition:
    return "permute-condition";
  case Purpose::Strengthening:
    return "strengthening";
  case Purpose::Minimize:
    return "minimize";
  }
  return "other";
}

PurposeScope::PurposeScope(Purpose P) : Saved(CurrentPurpose) {
  CurrentPurpose = P;
}

PurposeScope::~PurposeScope() { CurrentPurpose = Saved; }

Purpose telemetry::currentPurpose() { return CurrentPurpose; }
