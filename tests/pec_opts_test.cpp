//===- pec_opts_test.cpp - PEC proves the Figure 11 suite ----------------------===//
//
// The headline result: every optimization in the paper's Fig. 11 is proven
// correct once and for all, and PEC's permute usage matches the paper's
// "Uses permute" column. Broken variants of several rules are rejected.
//
//===----------------------------------------------------------------------===//

#include "opts/Optimizations.h"
#include "pec/Pec.h"

#include <gtest/gtest.h>

using namespace pec;

namespace {

class Figure11Test : public ::testing::TestWithParam<OptEntry> {};

TEST_P(Figure11Test, ProvedCorrect) {
  const OptEntry &Entry = GetParam();
  std::vector<std::string> Rules = {Entry.RuleText};
  Rules.insert(Rules.end(), Entry.ExtraRuleTexts.begin(),
               Entry.ExtraRuleTexts.end());
  for (const std::string &Text : Rules) {
    Rule R = parseRuleOrDie(Text);
    PecResult Result = proveRule(R);
    EXPECT_TRUE(Result.Proved)
        << R.Name << ": " << Result.FailureReason;
    if (Result.Proved) {
      EXPECT_EQ(Result.UsedPermute, Entry.UsesPermute) << R.Name;
    }
  }
}

std::string testName(const ::testing::TestParamInfo<OptEntry> &Info) {
  return Info.param.Name;
}

INSTANTIATE_TEST_SUITE_P(Suite, Figure11Test,
                         ::testing::ValuesIn(figure11Suite()), testName);

//===----------------------------------------------------------------------===//
// Broken variants must be rejected (the checker is not a rubber stamp).
//===----------------------------------------------------------------------===//

PecResult prove(const std::string &Text) {
  return proveRule(parseRuleOrDie(Text));
}

TEST(Figure11Negative, CseWithoutStability) {
  // Dropping DoesNotModify(S1, E): S1 may change E's value.
  EXPECT_FALSE(prove(R"(rule bad_cse {
      X := E; L1: S1; Y := E;
    } => {
      X := E; S1; Y := X;
    } where DoesNotModify(S1, X) @ L1 && DoesNotUse(E, X) @ L1)")
                   .Proved);
}

TEST(Figure11Negative, CseWithoutFrame) {
  // Dropping DoesNotModify(S1, X): S1 may clobber X.
  EXPECT_FALSE(prove(R"(rule bad_cse2 {
      X := E; L1: S1; Y := E;
    } => {
      X := E; S1; Y := X;
    } where DoesNotModify(S1, E) @ L1 && DoesNotUse(E, X) @ L1)")
                   .Proved);
}

TEST(Figure11Negative, SpeculationWithoutOverwrite) {
  // Classic wrong speculation: the else arm does not overwrite X.
  EXPECT_FALSE(prove(R"(rule bad_spec {
      L1: if (E0) { X := E; S1; } else { S2; }
    } => {
      X := E;
      if (E0) { S1; } else { S2; }
    } where DoesNotUse(E0, X) @ L1)")
                   .Proved);
}

TEST(Figure11Negative, UnswitchingWithoutInvariance) {
  // S1 may modify E1, so the unswitched branch choice can diverge.
  PecResult Result = prove(R"(rule bad_unswitch {
      while (E0) {
        if (E1) { S1; } else { S2; }
      }
    } => {
      if (E1) {
        while (E0) { S1; }
      } else {
        while (E0) { S2; }
      }
    })");
  EXPECT_FALSE(Result.Proved);
  // The reported attempt (a retry with a seeded pair banned) fails on
  // path enumeration, so the diagnosis needs no ATP query; the invalid
  // check of the superseded first attempt is not diagnosed.
  EXPECT_EQ(Result.Kind, FailureKind::NoCorrelation);
  EXPECT_EQ(Result.Atp
                .ByPurpose[static_cast<size_t>(telemetry::Purpose::Minimize)]
                .Queries,
            0u);
}

TEST(Figure11Negative, PipeliningWithoutPositiveTripCount) {
  // Without StrictlyPositive(E) the prologue/epilogue run for empty loops.
  EXPECT_FALSE(prove(R"(rule bad_pipeline {
      I := 0;
      L1: S0;
      L2: while (I < E) { L3: S1; L4: S2; L5: I++; }
    } => {
      I := 0;
      S0;
      S1;
      while (I < E - 1) { S2; I++; S1; }
      S2;
      I++;
    } where DoesNotModify(S0, I) @ L1 && DoesNotModify(S1, I) @ L3
         && DoesNotModify(S2, I) @ L4
         && DoesNotModify(S1, E) @ L3 && DoesNotModify(S2, E) @ L4
         && DoesNotUse(E, I) @ L5)")
                   .Proved);
}

TEST(Figure11Negative, ReversalWithoutCommute) {
  EXPECT_FALSE(prove(R"(rule bad_reversal {
      for (I := E1; I <= E2; I++) { S[I]; }
    } => {
      for (I := E2; I >= E1; I--) { S[I]; }
    })")
                   .Proved);
}

TEST(Figure11Negative, FusionWithMismatchedBounds) {
  EXPECT_FALSE(prove(R"(rule bad_fusion {
      for (I := E1; I <= E2; I++) { S1[I]; }
      for (J := E1; J <= E2 + 1; J++) { L1: S2[J]; }
    } => {
      for (I := E1; I <= E2; I++) { S1[I]; S2[I]; }
    } where forall K, L . Commute(S1[K], S2[L]) @ L1)")
                   .Proved);
}

TEST(Figure11Negative, InterchangeWithoutCommute) {
  EXPECT_FALSE(prove(R"(rule bad_interchange {
      for (I := E1; I <= E2; I++) {
        for (J := E3; J <= E4; J++) { S[I, J]; }
      }
    } => {
      for (J := E3; J <= E4; J++) {
        for (I := E1; I <= E2; I++) { S[I, J]; }
      }
    })")
                   .Proved);
}

TEST(Figure11Negative, AlignmentWithWrongShift) {
  // Bounds shifted by 1 but the body re-indexed by 2.
  EXPECT_FALSE(prove(R"(rule bad_alignment {
      for (I := E1; I <= E2; I++) { S[I]; }
    } => {
      for (I := E1 + 1; I <= E2 + 1; I++) { S[I - 2]; }
    })")
                   .Proved);
}

// Documented limitation: the *combined* one-rule form of software
// pipelining (paper Fig. 5) is not provable by the bisimulation phase —
// mid-loop, the transformed program runs one S1 instance ahead of the
// original, so the aligned points need a correlation predicate other than
// `s1 = s2`, which the paper's Cond mechanism (Sec. 4) never seeds. The
// paper's actual implementation (Fig. 12) composes the two Fig. 2/Fig. 3
// rules instead, and those are proven above.
TEST(Figure11Limitations, CombinedPipeliningFormNotBisimProvable) {
  PecResult Result = prove(R"(rule sw_pipeline_combined {
      I := 0;
      L1: S0;
      L2: while (I < E) {
        L3: S1[I];
        L4: S2;
        L5: I++;
      }
    } => {
      I := 0;
      S0;
      S1[I];
      while (I < E - 1) {
        S1[I + 1];
        S2;
        I++;
      }
      S2;
      I++;
    } where DoesNotModify(S0, I) @ L1 && DoesNotModify(S2, I) @ L4
         && StrictlyPositive(E) @ L2
         && DoesNotModify(S1[I], E) @ L3 && DoesNotModify(S2, E) @ L4
         && DoesNotUse(E, I) @ L5 && Commute(S2, S1[I + 1]) @ L4)");
  EXPECT_FALSE(Result.Proved);
}

TEST(Figure11Negative, UnrollTooFar) {
  // Unconditionally duplicating the body overruns the bound.
  EXPECT_FALSE(prove(R"(rule bad_unroll {
      while (E0) { S; }
    } => {
      while (E0) { S; S; }
    })")
                   .Proved);
}

} // namespace
