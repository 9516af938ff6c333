#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "survival/kaplan_meier.h"
#include "survival/life_table.h"
#include "survival/logrank.h"
#include "survival/nelson_aalen.h"
#include "survival/survival_data.h"

namespace cloudsurv::survival {
namespace {

SurvivalData MakeData(const std::vector<double>& durations,
                      const std::vector<bool>& observed) {
  auto d = SurvivalData::FromArrays(durations, observed);
  EXPECT_TRUE(d.ok()) << d.status();
  return *d;
}

TEST(SurvivalDataTest, ValidationAndCounts) {
  EXPECT_FALSE(SurvivalData::FromArrays({1.0, -1.0}, {true, true}).ok());
  EXPECT_FALSE(SurvivalData::FromArrays({1.0}, {true, false}).ok());
  EXPECT_FALSE(
      SurvivalData::FromArrays({std::nan("")}, {true}).ok());
  const SurvivalData d = MakeData({1, 2, 3}, {true, false, true});
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.num_events(), 2u);
  EXPECT_EQ(d.num_censored(), 1u);
  EXPECT_DOUBLE_EQ(d.max_duration(), 3.0);
}

TEST(KaplanMeierTest, NoCensoringMatchesEmpiricalSurvival) {
  // All events at 1, 2, 3, 4: S(t) steps down by 1/4 each time.
  const SurvivalData d = MakeData({1, 2, 3, 4}, {true, true, true, true});
  auto km = KaplanMeierCurve::Fit(d);
  ASSERT_TRUE(km.ok());
  EXPECT_DOUBLE_EQ(km->SurvivalAt(0.5), 1.0);
  EXPECT_DOUBLE_EQ(km->SurvivalAt(1.0), 0.75);
  EXPECT_DOUBLE_EQ(km->SurvivalAt(2.5), 0.50);
  EXPECT_DOUBLE_EQ(km->SurvivalAt(3.0), 0.25);
  EXPECT_DOUBLE_EQ(km->SurvivalAt(10.0), 0.0);
}

TEST(KaplanMeierTest, ClassicTextbookExample) {
  // The standard worked example (e.g. Kleinbaum & Klein):
  // times 6,6,6,7,10 with censoring at 6(c),9(c),10(c),11(c).
  // Group: 6,6,6,6+,7,9+,10,10+,11+ — remission data subset.
  const SurvivalData d = MakeData({6, 6, 6, 6, 7, 9, 10, 10, 11},
                                  {true, true, true, false, true, false,
                                   true, false, false});
  auto km = KaplanMeierCurve::Fit(d);
  ASSERT_TRUE(km.ok());
  // At t=6: n=9, d=3 -> S = 1 - 3/9 = 2/3.
  EXPECT_NEAR(km->SurvivalAt(6.0), 2.0 / 3.0, 1e-12);
  // At t=7: n=5 (9 - 3 events - 1 censored at 6), d=1 -> S = 2/3 * 4/5.
  EXPECT_NEAR(km->SurvivalAt(7.0), 2.0 / 3.0 * 4.0 / 5.0, 1e-12);
  // At t=10: n=3, d=1 -> S = 2/3 * 4/5 * 2/3.
  EXPECT_NEAR(km->SurvivalAt(10.5), 2.0 / 3.0 * 4.0 / 5.0 * 2.0 / 3.0,
              1e-12);
}

TEST(KaplanMeierTest, CensoredTailKeepsCurveAboveZero) {
  const SurvivalData d =
      MakeData({1, 2, 5, 5, 5}, {true, true, false, false, false});
  auto km = KaplanMeierCurve::Fit(d);
  ASSERT_TRUE(km.ok());
  EXPECT_NEAR(km->SurvivalAt(100.0), 0.6, 1e-12);
}

TEST(KaplanMeierTest, EmptyDataRejected) {
  EXPECT_FALSE(KaplanMeierCurve::Fit(SurvivalData()).ok());
}

TEST(KaplanMeierTest, InvalidConfidenceRejected) {
  const SurvivalData d = MakeData({1}, {true});
  EXPECT_FALSE(KaplanMeierCurve::Fit(d, 0.0).ok());
  EXPECT_FALSE(KaplanMeierCurve::Fit(d, 1.0).ok());
}

TEST(KaplanMeierTest, GreenwoodErrorGrowsOverTime) {
  Rng rng(5);
  std::vector<double> t;
  std::vector<bool> e;
  for (int i = 0; i < 500; ++i) {
    t.push_back(rng.Exponential(0.1));
    e.push_back(true);
  }
  auto km = KaplanMeierCurve::Fit(MakeData(t, e));
  ASSERT_TRUE(km.ok());
  const auto& steps = km->steps();
  // Standard error starts near 0 and is larger mid-curve.
  EXPECT_LT(steps.front().std_error, steps[steps.size() / 2].std_error);
}

TEST(KaplanMeierTest, ConfidenceIntervalsBracketEstimate) {
  const SurvivalData d = MakeData({6, 6, 6, 6, 7, 9, 10, 10, 11},
                                  {true, true, true, false, true, false,
                                   true, false, false});
  auto km = KaplanMeierCurve::Fit(d);
  ASSERT_TRUE(km.ok());
  for (const auto& step : km->steps()) {
    EXPECT_GE(step.ci_upper, step.survival - 1e-12);
    EXPECT_LE(step.ci_lower, step.survival + 1e-12);
    EXPECT_GE(step.ci_lower, 0.0);
    EXPECT_LE(step.ci_upper, 1.0);
  }
}

TEST(KaplanMeierTest, MedianAndPercentiles) {
  const SurvivalData d =
      MakeData({1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
               std::vector<bool>(10, true));
  auto km = KaplanMeierCurve::Fit(d);
  ASSERT_TRUE(km.ok());
  ASSERT_TRUE(km->MedianTime().has_value());
  EXPECT_DOUBLE_EQ(*km->MedianTime(), 5.0);
  EXPECT_DOUBLE_EQ(*km->PercentileTime(0.2), 2.0);
}

TEST(KaplanMeierTest, MedianUndefinedUnderHeavyCensoring) {
  const SurvivalData d =
      MakeData({1, 10, 10, 10}, {true, false, false, false});
  auto km = KaplanMeierCurve::Fit(d);
  ASSERT_TRUE(km.ok());
  EXPECT_FALSE(km->MedianTime().has_value());
}

TEST(KaplanMeierTest, RestrictedMeanOfStepCurve) {
  // S=1 on [0,1), 0.5 on [1,2), 0 beyond 2.
  const SurvivalData d = MakeData({1, 2}, {true, true});
  auto km = KaplanMeierCurve::Fit(d);
  ASSERT_TRUE(km.ok());
  EXPECT_DOUBLE_EQ(km->RestrictedMean(2.0), 1.5);
  EXPECT_DOUBLE_EQ(km->RestrictedMean(3.0), 1.5);
  EXPECT_DOUBLE_EQ(km->RestrictedMean(0.5), 0.5);
}

TEST(KaplanMeierTest, EvaluateGridMatchesSurvivalAt) {
  const SurvivalData d = MakeData({1, 2, 3}, {true, true, false});
  auto km = KaplanMeierCurve::Fit(d);
  ASSERT_TRUE(km.ok());
  const auto grid = km->Evaluate(3.0, 7);
  ASSERT_EQ(grid.size(), 7u);
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(grid[i], km->SurvivalAt(3.0 * i / 6.0));
  }
}

TEST(KaplanMeierTest, ToTableContainsHeader) {
  const SurvivalData d = MakeData({1, 2}, {true, true});
  auto km = KaplanMeierCurve::Fit(d);
  ASSERT_TRUE(km.ok());
  EXPECT_NE(km->ToTable().find("at_risk"), std::string::npos);
}

/// Property: without censoring, KM equals the empirical survival
/// function at every sample point. Parameterized over sample sizes.
class KmEmpiricalTest : public ::testing::TestWithParam<int> {};

TEST_P(KmEmpiricalTest, MatchesEmpiricalWithoutCensoring) {
  const int n = GetParam();
  Rng rng(42 + n);
  std::vector<double> t;
  for (int i = 0; i < n; ++i) t.push_back(rng.Weibull(1.3, 5.0));
  auto km = KaplanMeierCurve::Fit(MakeData(t, std::vector<bool>(n, true)));
  ASSERT_TRUE(km.ok());
  std::sort(t.begin(), t.end());
  for (int i = 0; i < n; ++i) {
    const double expected =
        static_cast<double>(n - i - 1) / static_cast<double>(n);
    EXPECT_NEAR(km->SurvivalAt(t[i]), expected, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KmEmpiricalTest,
                         ::testing::Values(3, 10, 57, 200));

TEST(NelsonAalenTest, HandComputedHazard) {
  const SurvivalData d = MakeData({1, 2, 3}, {true, true, true});
  auto na = NelsonAalenCurve::Fit(d);
  ASSERT_TRUE(na.ok());
  EXPECT_NEAR(na->CumulativeHazardAt(1.0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(na->CumulativeHazardAt(2.0), 1.0 / 3.0 + 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(na->CumulativeHazardAt(3.0), 1.0 / 3.0 + 1.0 / 2.0 + 1.0,
              1e-12);
  EXPECT_DOUBLE_EQ(na->CumulativeHazardAt(0.5), 0.0);
}

TEST(NelsonAalenTest, ExpMinusHazardApproximatesKm) {
  Rng rng(8);
  std::vector<double> t;
  std::vector<bool> e;
  for (int i = 0; i < 2000; ++i) {
    t.push_back(rng.Exponential(0.2));
    e.push_back(rng.Uniform() < 0.8);
  }
  const SurvivalData d = MakeData(t, e);
  auto km = KaplanMeierCurve::Fit(d);
  auto na = NelsonAalenCurve::Fit(d);
  ASSERT_TRUE(km.ok());
  ASSERT_TRUE(na.ok());
  for (double x : {1.0, 3.0, 5.0}) {
    EXPECT_NEAR(std::exp(-na->CumulativeHazardAt(x)), km->SurvivalAt(x),
                0.02);
  }
}

TEST(NelsonAalenTest, SmoothedHazardDetectsSpike) {
  // Flat exponential hazard plus a spike of deaths at t=120.
  Rng rng(9);
  std::vector<double> t;
  std::vector<bool> e;
  for (int i = 0; i < 3000; ++i) {
    t.push_back(rng.Uniform(0.0, 200.0));  // uniform deaths, low hazard
    e.push_back(true);
  }
  for (int i = 0; i < 600; ++i) {
    t.push_back(119.0 + rng.Uniform() * 2.0);
    e.push_back(true);
  }
  auto na = NelsonAalenCurve::Fit(MakeData(t, e));
  ASSERT_TRUE(na.ok());
  EXPECT_GT(na->SmoothedHazard(120.0, 2.0), 2.0 * na->SmoothedHazard(60.0, 2.0));
}

TEST(LogRankTest, IdenticalGroupsNotSignificant) {
  Rng rng(10);
  std::vector<double> ta, tb;
  std::vector<bool> ea, eb;
  for (int i = 0; i < 400; ++i) {
    ta.push_back(rng.Weibull(1.2, 10.0));
    ea.push_back(rng.Uniform() < 0.8);
    tb.push_back(rng.Weibull(1.2, 10.0));
    eb.push_back(rng.Uniform() < 0.8);
  }
  auto result = LogRankTest(MakeData(ta, ea), MakeData(tb, eb));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->p_value, 0.01);
  EXPECT_DOUBLE_EQ(result->degrees_of_freedom, 1.0);
}

TEST(LogRankTest, SeparatedGroupsHighlySignificant) {
  Rng rng(11);
  std::vector<double> ta, tb;
  for (int i = 0; i < 300; ++i) {
    ta.push_back(rng.Exponential(1.0));        // mean 1
    tb.push_back(rng.Exponential(1.0 / 5.0));  // mean 5
  }
  auto result = LogRankTest(MakeData(ta, std::vector<bool>(300, true)),
                            MakeData(tb, std::vector<bool>(300, true)));
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->p_value, 1e-7);
  EXPECT_GT(result->statistic, 30.0);
  EXPECT_TRUE(result->significant_at_05());
}

TEST(LogRankTest, HandComputedTwoSample) {
  // Group A: events at 1, 2; Group B: events at 3, 4.
  // Time 1: n=4 (2,2), d=1 in A. E_A = 1*2/4 = 0.5, V = (2*2*1*3)/(16*3)=0.25
  // Time 2: n=3 (1,2), d=1 in A. E_A = 1/3, V = (1*2*1*2)/(9*2) = 2/9
  // Time 3: n=2 (0,2), d=1 in B. E_A = 0, V = 0
  // Time 4: n=1, no variance.
  // O_A - E_A = 2 - 5/6 = 7/6; Var = 0.25 + 2/9 = 17/36.
  // Chi2 = (7/6)^2 / (17/36) = (49/36)*(36/17) = 49/17 = 2.882.
  auto result = LogRankTest(MakeData({1, 2}, {true, true}),
                            MakeData({3, 4}, {true, true}));
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->statistic, 49.0 / 17.0, 1e-10);
  EXPECT_NEAR(result->observed[0], 2.0, 1e-12);
  EXPECT_NEAR(result->expected[0], 5.0 / 6.0, 1e-12);
}

TEST(LogRankTest, ObservedAndExpectedTotalsMatch) {
  Rng rng(12);
  std::vector<double> ta, tb;
  std::vector<bool> ea, eb;
  for (int i = 0; i < 200; ++i) {
    ta.push_back(rng.Exponential(0.5));
    ea.push_back(rng.Uniform() < 0.7);
    tb.push_back(rng.Exponential(0.3));
    eb.push_back(rng.Uniform() < 0.7);
  }
  auto result = LogRankTest(MakeData(ta, ea), MakeData(tb, eb));
  ASSERT_TRUE(result.ok());
  const double observed_total = result->observed[0] + result->observed[1];
  const double expected_total = result->expected[0] + result->expected[1];
  EXPECT_NEAR(observed_total, expected_total, 1e-9);
}

TEST(LogRankTest, RejectsDegenerateInputs) {
  const SurvivalData d = MakeData({1, 2}, {true, true});
  EXPECT_FALSE(KSampleLogRankTest({d}).ok());
  EXPECT_FALSE(LogRankTest(d, SurvivalData()).ok());
}

TEST(LogRankTest, ThreeSampleDetectsOneOutlierGroup) {
  Rng rng(13);
  std::vector<SurvivalData> groups;
  for (int g = 0; g < 3; ++g) {
    std::vector<double> t;
    const double scale = g == 2 ? 30.0 : 5.0;
    for (int i = 0; i < 200; ++i) t.push_back(rng.Weibull(1.0, scale));
    groups.push_back(MakeData(t, std::vector<bool>(200, true)));
  }
  auto result = KSampleLogRankTest(groups);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->degrees_of_freedom, 2.0);
  EXPECT_LT(result->p_value, 1e-7);
}

TEST(LogRankTest, WeightingVariantsAgreeOnProportionalHazards) {
  Rng rng(14);
  std::vector<double> ta, tb;
  for (int i = 0; i < 400; ++i) {
    ta.push_back(rng.Exponential(1.0));
    tb.push_back(rng.Exponential(0.5));
  }
  const SurvivalData a = MakeData(ta, std::vector<bool>(400, true));
  const SurvivalData b = MakeData(tb, std::vector<bool>(400, true));
  for (auto w : {LogRankWeighting::kLogRank, LogRankWeighting::kWilcoxon,
                 LogRankWeighting::kPetoPeto}) {
    auto result = LogRankTest(a, b, w);
    ASSERT_TRUE(result.ok());
    EXPECT_LT(result->p_value, 1e-6);
  }
}

TEST(StratifiedLogRankTest, SingleStratumMatchesPlainTest) {
  Rng rng(20);
  std::vector<double> ta, tb;
  std::vector<bool> ea, eb;
  for (int i = 0; i < 300; ++i) {
    ta.push_back(rng.Exponential(0.5));
    ea.push_back(rng.Uniform() < 0.8);
    tb.push_back(rng.Exponential(0.3));
    eb.push_back(rng.Uniform() < 0.8);
  }
  const SurvivalData a = MakeData(ta, ea);
  const SurvivalData b = MakeData(tb, eb);
  auto plain = LogRankTest(a, b);
  auto stratified = StratifiedLogRankTest({{a, b}});
  ASSERT_TRUE(plain.ok() && stratified.ok());
  EXPECT_NEAR(stratified->statistic, plain->statistic, 1e-9);
  EXPECT_NEAR(stratified->p_value, plain->p_value, 1e-9);
}

TEST(StratifiedLogRankTest, ControlsForConfoundedStrata) {
  // Two strata with very different baseline hazards but NO group
  // effect within either stratum. A pooled (unstratified) test can be
  // fooled when group sizes differ across strata; the stratified test
  // must stay insignificant.
  Rng rng(21);
  std::vector<std::pair<SurvivalData, SurvivalData>> strata;
  std::vector<double> pooled_a_t, pooled_b_t;
  std::vector<bool> pooled_a_e, pooled_b_e;
  for (int s = 0; s < 2; ++s) {
    const double rate = s == 0 ? 1.0 : 0.05;  // fast vs slow stratum
    // Group A over-represented in the fast stratum, B in the slow one.
    const int n_a = s == 0 ? 400 : 100;
    const int n_b = s == 0 ? 100 : 400;
    std::vector<double> ta, tb;
    for (int i = 0; i < n_a; ++i) ta.push_back(rng.Exponential(rate));
    for (int i = 0; i < n_b; ++i) tb.push_back(rng.Exponential(rate));
    pooled_a_t.insert(pooled_a_t.end(), ta.begin(), ta.end());
    pooled_b_t.insert(pooled_b_t.end(), tb.begin(), tb.end());
    pooled_a_e.insert(pooled_a_e.end(), ta.size(), true);
    pooled_b_e.insert(pooled_b_e.end(), tb.size(), true);
    strata.emplace_back(MakeData(ta, std::vector<bool>(ta.size(), true)),
                        MakeData(tb, std::vector<bool>(tb.size(), true)));
  }
  auto stratified = StratifiedLogRankTest(strata);
  ASSERT_TRUE(stratified.ok());
  EXPECT_GT(stratified->p_value, 0.01);  // no within-stratum effect

  // The naive pooled test is badly confounded (A looks short-lived).
  auto pooled = LogRankTest(MakeData(pooled_a_t, pooled_a_e),
                            MakeData(pooled_b_t, pooled_b_e));
  ASSERT_TRUE(pooled.ok());
  EXPECT_LT(pooled->p_value, 1e-7);
}

TEST(StratifiedLogRankTest, DetectsConsistentEffect) {
  Rng rng(22);
  std::vector<std::pair<SurvivalData, SurvivalData>> strata;
  for (int s = 0; s < 3; ++s) {
    const double base = 0.1 * (s + 1);
    std::vector<double> ta, tb;
    for (int i = 0; i < 200; ++i) {
      ta.push_back(rng.Exponential(base * 2.0));  // A dies faster
      tb.push_back(rng.Exponential(base));
    }
    strata.emplace_back(MakeData(ta, std::vector<bool>(200, true)),
                        MakeData(tb, std::vector<bool>(200, true)));
  }
  auto result = StratifiedLogRankTest(strata);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->p_value, 1e-7);
  EXPECT_GT(result->observed[0], result->expected[0]);
}

TEST(StratifiedLogRankTest, RejectsInvalidInputs) {
  EXPECT_FALSE(StratifiedLogRankTest({}).ok());
  const SurvivalData d = MakeData({1, 2}, {true, true});
  EXPECT_FALSE(StratifiedLogRankTest({{d, SurvivalData()}}).ok());
}

TEST(LifeTableTest, HandComputedRows) {
  // 10 subjects; 2 events in [0,10), 1 censored in [0,10).
  std::vector<double> t = {1, 5, 7, 12, 15, 15, 15, 15, 15, 15};
  std::vector<bool> e = {true, true, false, true, false, false,
                         false, false, false, false};
  auto table = LifeTable::Build(
      *SurvivalData::FromArrays(t, e), 10.0, 20.0);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows().size(), 2u);
  const LifeTableRow& r0 = table->rows()[0];
  EXPECT_EQ(r0.entering, 10u);
  EXPECT_EQ(r0.events, 2u);
  EXPECT_EQ(r0.censored, 1u);
  EXPECT_DOUBLE_EQ(r0.effective_at_risk, 9.5);
  EXPECT_NEAR(r0.conditional_survival, 1.0 - 2.0 / 9.5, 1e-12);
  const LifeTableRow& r1 = table->rows()[1];
  EXPECT_EQ(r1.entering, 7u);
  EXPECT_EQ(r1.events, 1u);
  // 6 censored in [10,20): one at 15 (x6)... all six 15s are censored.
  EXPECT_EQ(r1.censored, 6u);
}

TEST(LifeTableTest, SurvivalMonotone) {
  Rng rng(15);
  std::vector<double> t;
  std::vector<bool> e;
  for (int i = 0; i < 1000; ++i) {
    t.push_back(rng.Weibull(1.0, 20.0));
    e.push_back(rng.Uniform() < 0.7);
  }
  auto table =
      LifeTable::Build(*SurvivalData::FromArrays(t, e), 7.0, 140.0);
  ASSERT_TRUE(table.ok());
  double prev = 1.0;
  for (const auto& row : table->rows()) {
    EXPECT_LE(row.cumulative_survival, prev + 1e-12);
    prev = row.cumulative_survival;
  }
  EXPECT_NE(table->ToText().find("hazard"), std::string::npos);
}

TEST(LifeTableTest, RejectsInvalidArguments) {
  const SurvivalData d = *SurvivalData::FromArrays({1.0}, {true});
  EXPECT_FALSE(LifeTable::Build(d, 0.0, 10.0).ok());
  EXPECT_FALSE(LifeTable::Build(d, 1.0, 0.0).ok());
  EXPECT_FALSE(LifeTable::Build(SurvivalData(), 1.0, 10.0).ok());
}

TEST(LifeTableTest, AgreesWithKmRoughly) {
  Rng rng(16);
  std::vector<double> t;
  std::vector<bool> e;
  for (int i = 0; i < 3000; ++i) {
    t.push_back(rng.Weibull(1.2, 30.0));
    e.push_back(true);
  }
  const SurvivalData d = *SurvivalData::FromArrays(t, e);
  auto km = KaplanMeierCurve::Fit(d);
  auto table = LifeTable::Build(d, 5.0, 100.0);
  ASSERT_TRUE(km.ok());
  ASSERT_TRUE(table.ok());
  for (double x : {10.0, 30.0, 60.0}) {
    EXPECT_NEAR(table->SurvivalAt(x), km->SurvivalAt(x), 0.03);
  }
}

// --- Known answers ----------------------------------------------------

/// n subjects with exponential(rate) lifetimes, right-censored by an
/// independent exponential(censor_rate) follow-up time.
SurvivalData ExponentialCensoredSample(Rng& rng, int n, double rate,
                                       double censor_rate) {
  std::vector<double> t;
  std::vector<bool> e;
  for (int i = 0; i < n; ++i) {
    const double lifetime = rng.Exponential(rate);
    const double follow_up = rng.Exponential(censor_rate);
    t.push_back(std::min(lifetime, follow_up));
    e.push_back(lifetime <= follow_up);
  }
  return MakeData(t, e);
}

/// The 95% interval of the step in force at `time` ([1, 1] before the
/// first event).
std::pair<double, double> IntervalAt(const KaplanMeierCurve& km,
                                     double time) {
  std::pair<double, double> ci{1.0, 1.0};
  for (const KaplanMeierStep& step : km.steps()) {
    if (step.time > time) break;
    ci = {step.ci_lower, step.ci_upper};
  }
  return ci;
}

TEST(KnownAnswerTest, GreenwoodIntervalCoversTrueExponentialSurvival) {
  // 200 seeded samples of 100 exponential(1) lifetimes, about a third
  // censored. At each fixed time the nominal 95% interval must cover
  // the true S(t) = exp(-t) in 90-99% of the samples.
  constexpr int kSamples = 200;
  constexpr double kRate = 1.0;
  const double times[] = {0.25, 0.7, 1.5};  // S = 0.78, 0.50, 0.22.
  int covered[3] = {0, 0, 0};
  for (int sample = 0; sample < kSamples; ++sample) {
    Rng rng(1000 + sample);
    auto km = KaplanMeierCurve::Fit(
        ExponentialCensoredSample(rng, 100, kRate, /*censor_rate=*/0.5));
    ASSERT_TRUE(km.ok());
    for (int k = 0; k < 3; ++k) {
      const double truth = std::exp(-kRate * times[k]);
      const auto [lo, hi] = IntervalAt(*km, times[k]);
      if (lo <= truth && truth <= hi) ++covered[k];
    }
  }
  for (int k = 0; k < 3; ++k) {
    const double rate = static_cast<double>(covered[k]) / kSamples;
    EXPECT_GE(rate, 0.90) << "t = " << times[k];
    EXPECT_LE(rate, 0.99) << "t = " << times[k];
  }
}

TEST(KnownAnswerTest, LogRankTypeOneErrorUnderTheNull) {
  // 400 seeded pairs of groups drawn from one distribution: the test
  // must reject at alpha = 0.05 in 2-8% of them.
  constexpr int kDraws = 400;
  int rejected = 0;
  for (int draw = 0; draw < kDraws; ++draw) {
    Rng rng(5000 + draw);
    const SurvivalData a = ExponentialCensoredSample(rng, 60, 0.2, 0.1);
    const SurvivalData b = ExponentialCensoredSample(rng, 60, 0.2, 0.1);
    auto test = LogRankTest(a, b);
    ASSERT_TRUE(test.ok());
    if (test->significant_at_05()) ++rejected;
  }
  const double rate = static_cast<double>(rejected) / kDraws;
  EXPECT_GE(rate, 0.02);
  EXPECT_LE(rate, 0.08);
}

TEST(KnownAnswerTest, LogRankNullPValuesAreUniform) {
  // Under the null the p-value is Uniform(0, 1). One-sample KS test of
  // 500 seeded null p-values: D must stay below the alpha = 0.01
  // critical value 1.63 / sqrt(n).
  constexpr int kDraws = 500;
  std::vector<double> p;
  for (int draw = 0; draw < kDraws; ++draw) {
    Rng rng(9000 + draw);
    const SurvivalData a = ExponentialCensoredSample(rng, 60, 0.2, 0.1);
    const SurvivalData b = ExponentialCensoredSample(rng, 60, 0.2, 0.1);
    auto test = LogRankTest(a, b);
    ASSERT_TRUE(test.ok());
    p.push_back(test->p_value);
  }
  std::sort(p.begin(), p.end());
  double d = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    d = std::max({d, (i + 1.0) / kDraws - p[i],
                  p[i] - static_cast<double>(i) / kDraws});
  }
  EXPECT_LT(d, 1.63 / std::sqrt(double{kDraws}));
}

TEST(KnownAnswerTest, GreenwoodIntervalCoversTrueWeibullSurvival) {
  // 200 seeded samples of 100 Weibull(k = 1.5, scale 10) lifetimes,
  // right-censored by an independent exponential follow-up (about a
  // quarter censored). At each fixed time the nominal 95% interval
  // must cover the true S(t) = exp(-(t / 10)^1.5) in 90-99% of the
  // samples.
  constexpr int kSamples = 200;
  constexpr double kShape = 1.5;
  constexpr double kScale = 10.0;
  const double times[] = {4.0, 8.5, 14.0};  // S = 0.78, 0.46, 0.19.
  int covered[3] = {0, 0, 0};
  for (int sample = 0; sample < kSamples; ++sample) {
    Rng rng(3000 + sample);
    std::vector<double> t;
    std::vector<bool> e;
    for (int i = 0; i < 100; ++i) {
      const double lifetime = rng.Weibull(kShape, kScale);
      const double follow_up = rng.Exponential(0.03);
      t.push_back(std::min(lifetime, follow_up));
      e.push_back(lifetime <= follow_up);
    }
    auto km = KaplanMeierCurve::Fit(MakeData(t, e));
    ASSERT_TRUE(km.ok());
    for (int k = 0; k < 3; ++k) {
      const double truth = std::exp(-std::pow(times[k] / kScale, kShape));
      const auto [lo, hi] = IntervalAt(*km, times[k]);
      if (lo <= truth && truth <= hi) ++covered[k];
    }
  }
  for (int k = 0; k < 3; ++k) {
    const double rate = static_cast<double>(covered[k]) / kSamples;
    EXPECT_GE(rate, 0.90) << "t = " << times[k];
    EXPECT_LE(rate, 0.99) << "t = " << times[k];
  }
}

}  // namespace
}  // namespace cloudsurv::survival
