#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/thread_pool.h"
#include "features/feature_plan.h"
#include "features/features.h"
#include "gtest/gtest.h"
#include "telemetry/types.h"
#include "tests/test_util.h"

namespace cloudsurv::features {
namespace {

using cloudsurv::testing::StoreBuilder;
using telemetry::SloIndexByName;

// One row through FeaturePlan::ExtractRow, the per-id reference the
// batch sweeps are compared against. Its history family always re-scans
// the subscription, while a batch with several targets of one
// subscription reads a shared sibling table.
Result<std::vector<double>> RowOf(const FeaturePlan& plan,
                                  const telemetry::TelemetryStore& store,
                                  const telemetry::DatabaseRecord& record) {
  std::vector<double> row(plan.num_features());
  CLOUDSURV_RETURN_NOT_OK(plan.ExtractRow(store, record, row));
  return row;
}

Result<std::vector<double>> RowOf(const FeatureConfig& config,
                                  const telemetry::TelemetryStore& store,
                                  const telemetry::DatabaseRecord& record) {
  CLOUDSURV_ASSIGN_OR_RETURN(const FeaturePlan plan,
                             FeaturePlan::Compile(config));
  return RowOf(plan, store, record);
}

TEST(NameShapeTest, HumanStyleName) {
  const auto f = NameShapeFeatures("testtest");
  EXPECT_DOUBLE_EQ(f[0], 8.0);              // length
  EXPECT_DOUBLE_EQ(f[1], 3.0);              // distinct: t, e, s
  EXPECT_DOUBLE_EQ(f[2], 3.0 / 8.0);        // distinct rate
  EXPECT_DOUBLE_EQ(f[3], 0.0);              // no digits
  EXPECT_DOUBLE_EQ(f[4], 0.0);              // no mixed case
  EXPECT_DOUBLE_EQ(f[5], 0.0);              // no symbols
}

TEST(NameShapeTest, AutomatedStyleName) {
  const auto f = NameShapeFeatures("ci-a8f3e2d9c1");
  EXPECT_DOUBLE_EQ(f[0], 13.0);
  EXPECT_DOUBLE_EQ(f[1], 12.0);  // only 'c' repeats
  EXPECT_GT(f[2], 0.7);   // high distinct rate
  EXPECT_DOUBLE_EQ(f[3], 1.0);  // letters + digits
  EXPECT_DOUBLE_EQ(f[5], 1.0);  // hyphen
}

TEST(NameShapeTest, MixedCaseDetected) {
  const auto f = NameShapeFeatures("MyDb");
  EXPECT_DOUBLE_EQ(f[4], 1.0);
}

TEST(NameShapeTest, EmptyNameIsAllZero) {
  const auto f = NameShapeFeatures("");
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(NameNgramTest, CountsBigramsIntoBuckets) {
  const auto f = NameNgramFeatures("abc", 4);
  double total = 0.0;
  for (double v : f) total += v;
  EXPECT_DOUBLE_EQ(total, 2.0);  // "ab", "bc"
  EXPECT_EQ(f.size(), 4u);
  const auto empty = NameNgramFeatures("x", 4);
  for (double v : empty) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(CreationTimeTest, LocalFieldsAndHoliday) {
  StoreBuilder b;
  // 2017-01-02T18:30 UTC = 2017-01-02 10:30 local (UTC-8) = holiday in
  // the test calendar.
  const double day = 1.0 + 18.5 / 24.0;
  b.AddDatabase(1, day, -1.0);
  auto store = b.Finish();
  const auto f = CreationTimeFeatures(store, store.databases()[0]);
  EXPECT_DOUBLE_EQ(f[0], 1.0);   // Monday
  EXPECT_DOUBLE_EQ(f[1], 2.0);   // day of month
  EXPECT_DOUBLE_EQ(f[2], 1.0);   // week of year
  EXPECT_DOUBLE_EQ(f[3], 1.0);   // January
  EXPECT_DOUBLE_EQ(f[4], 10.0);  // 10am local
  EXPECT_DOUBLE_EQ(f[5], 1.0);   // holiday
}

TEST(SizeFeaturesTest, OnlyObservationWindowCounts) {
  StoreBuilder b;
  const auto id = b.AddDatabase(1, 0.0, -1.0);
  b.AddSizeSample(id, 1, 0.5, 100.0);
  b.AddSizeSample(id, 1, 1.0, 150.0);
  b.AddSizeSample(id, 1, 1.5, 200.0);
  b.AddSizeSample(id, 1, 10.0, 9999.0);  // beyond the 2-day window
  auto store = b.Finish();
  const auto f = SizeFeatures(store.databases()[0], b.DayTs(2.0));
  EXPECT_DOUBLE_EQ(f[0], 200.0);  // max
  EXPECT_DOUBLE_EQ(f[1], 100.0);  // min
  EXPECT_DOUBLE_EQ(f[2], 150.0);  // avg
  EXPECT_GT(f[3], 0.0);           // std
  EXPECT_DOUBLE_EQ(f[4], 1.0);    // (200-100)/100 relative change
}

TEST(SizeFeaturesTest, NoSamplesIsAllZero) {
  StoreBuilder b;
  b.AddDatabase(1, 0.0, -1.0);
  auto store = b.Finish();
  const auto f = SizeFeatures(store.databases()[0], b.DayTs(2.0));
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(SloFeaturesTest, TracksChangesWithinWindowOnly) {
  StoreBuilder b;
  const auto id = b.AddDatabase(1, 0.0, -1.0, "db", "s", SloIndexByName("S0"));
  b.AddSloChange(id, 1, 1.0, SloIndexByName("S0"), SloIndexByName("S2"));
  b.AddSloChange(id, 1, 1.5, SloIndexByName("S2"), SloIndexByName("P1"));
  b.AddSloChange(id, 1, 30.0, SloIndexByName("P1"), SloIndexByName("S0"));
  auto store = b.Finish();
  const auto f = SloFeatures(store.databases()[0], b.DayTs(2.0));
  EXPECT_DOUBLE_EQ(f[0], 2.0);  // changes in window
  EXPECT_DOUBLE_EQ(f[1], 1.0);  // one crossed editions (S2 -> P1)
  EXPECT_DOUBLE_EQ(f[2], 3.0);  // distinct SLOs: S0, S2, P1
  EXPECT_DOUBLE_EQ(f[3], 2.0);  // distinct editions
  EXPECT_DOUBLE_EQ(f[4], 2.0);  // Premium at prediction
  EXPECT_DOUBLE_EQ(f[5], static_cast<double>(SloIndexByName("P1")));
  EXPECT_DOUBLE_EQ(f[6], 1.0);  // edition delta (Premium - Standard)
  EXPECT_DOUBLE_EQ(f[8], 125.0);  // max DTUs
  EXPECT_DOUBLE_EQ(f[9], 10.0);   // min DTUs
}

TEST(SloFeaturesTest, NoChanges) {
  StoreBuilder b;
  b.AddDatabase(1, 0.0, -1.0, "db", "s", SloIndexByName("Basic"));
  auto store = b.Finish();
  const auto f = SloFeatures(store.databases()[0], b.DayTs(2.0));
  EXPECT_DOUBLE_EQ(f[0], 0.0);
  EXPECT_DOUBLE_EQ(f[2], 1.0);
  EXPECT_DOUBLE_EQ(f[8], 5.0);
  EXPECT_DOUBLE_EQ(f[10], 5.0);
}

TEST(SubscriptionTypeTest, OneHot) {
  StoreBuilder b;
  b.AddDatabase(1, 0.0, -1.0, "db", "s", 0,
                telemetry::SubscriptionType::kFreeTrial);
  auto store = b.Finish();
  const auto f = SubscriptionTypeFeatures(store.databases()[0]);
  ASSERT_EQ(f.size(), 6u);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  for (size_t i = 1; i < f.size(); ++i) EXPECT_DOUBLE_EQ(f[i], 0.0);
}

TEST(SubscriptionHistoryTest, GroupsAndStats) {
  StoreBuilder b;
  // Target database created at day 50.
  // Sibling A: created day 10, dropped day 20 -> group 2 only.
  // Sibling B: created day 30, alive at 50 (dropped day 80, i.e. after
  //   Tp=52 -> still "alive at Tc") -> groups 1 and 2.
  // Sibling C: created day 51 (between Tc and Tp) -> group 3.
  // Sibling D: created day 60 -> invisible at Tp.
  const auto a = b.AddDatabase(5, 10.0, 20.0);
  b.AddSizeSample(a, 5, 11.0, 100.0);
  const auto bee = b.AddDatabase(5, 30.0, 80.0);
  b.AddSizeSample(bee, 5, 31.0, 300.0);
  b.AddDatabase(5, 51.0, -1.0);
  b.AddDatabase(5, 60.0, -1.0);
  const auto target = b.AddDatabase(5, 50.0, -1.0);
  auto store = b.Finish();

  const auto record = *store.FindDatabase(target);
  const auto f = SubscriptionHistoryFeatures(store, record, b.DayTs(52.0));
  ASSERT_EQ(f.size(), 19u);
  EXPECT_DOUBLE_EQ(f[0], 1.0);  // group 1: sibling B
  EXPECT_DOUBLE_EQ(f[1], 2.0);  // group 2: A and B
  EXPECT_DOUBLE_EQ(f[2], 1.0);  // group 3: C
  // Group 1 size stats (only B, peak size 300).
  EXPECT_DOUBLE_EQ(f[3], 300.0);  // max
  EXPECT_DOUBLE_EQ(f[4], 300.0);  // min
  // Group 1 lifespan: B observed from day 30 to min(80, 52) = 22 days.
  EXPECT_NEAR(f[7], 22.0, 1e-9);   // max lifespan
  EXPECT_NEAR(f[9], 22.0, 1e-9);   // avg lifespan
  // Group 2 size stats: A peak 100, B peak 300.
  EXPECT_DOUBLE_EQ(f[11], 300.0);  // max
  EXPECT_DOUBLE_EQ(f[12], 100.0);  // min
  EXPECT_DOUBLE_EQ(f[13], 200.0);  // avg
  // Group 2 lifespans: A = 10 (dropped), B = 22 (censored at Tp).
  EXPECT_NEAR(f[15], 22.0, 1e-9);  // max
  EXPECT_NEAR(f[16], 10.0, 1e-9);  // min
}

TEST(SubscriptionHistoryTest, LonelyDatabaseIsAllZero) {
  StoreBuilder b;
  const auto id = b.AddDatabase(9, 5.0, -1.0);
  auto store = b.Finish();
  const auto f =
      SubscriptionHistoryFeatures(store, *store.FindDatabase(id),
                                  b.DayTs(7.0));
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ExtractRowTest, RowMatchesNamesLayout) {
  StoreBuilder b;
  const auto id = b.AddDatabase(1, 0.0, -1.0);
  b.AddSizeSample(id, 1, 0.5, 10.0);
  auto store = b.Finish();
  FeatureConfig config;
  auto plan = FeaturePlan::Compile(config);
  ASSERT_OK(plan.status());
  auto features = RowOf(*plan, store, store.databases()[0]);
  ASSERT_TRUE(features.ok()) << features.status();
  EXPECT_EQ(features->size(), FeatureNames(config).size());
  // A buffer of the wrong width is refused, not overrun.
  std::vector<double> short_row(plan->num_features() - 1);
  const Status status =
      plan->ExtractRow(store, store.databases()[0], short_row);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

TEST(FeatureNamesTest, ConfigTogglesChangeLayout) {
  FeatureConfig all;
  FeatureConfig minimal;
  minimal.include_names = false;
  minimal.include_subscription_history = false;
  EXPECT_GT(FeatureNames(all).size(), FeatureNames(minimal).size());
  FeatureConfig with_ngrams = all;
  with_ngrams.include_name_ngrams = true;
  EXPECT_EQ(FeatureNames(with_ngrams).size(),
            FeatureNames(all).size() + 8);
}

TEST(ExtractRowTest, RejectsDatabaseDroppedInsideWindow) {
  StoreBuilder b;
  b.AddDatabase(1, 0.0, 1.0);  // dropped after 1 day
  auto store = b.Finish();
  FeatureConfig config;  // 2-day observation
  auto features = RowOf(config, store, store.databases()[0]);
  EXPECT_EQ(features.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BuildDatasetTest, ParallelArraysAndLabels) {
  StoreBuilder b;
  const auto id1 = b.AddDatabase(1, 0.0, 40.0);
  const auto id2 = b.AddDatabase(1, 5.0, 15.0);
  auto store = b.Finish();
  FeatureConfig config;
  auto dataset = BuildDataset(store, {id1, id2}, {1, 0}, config);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(dataset->num_rows(), 2u);
  EXPECT_EQ(dataset->label(0), 1);
  EXPECT_EQ(dataset->label(1), 0);
  EXPECT_EQ(dataset->num_features(), FeatureNames(config).size());
  EXPECT_FALSE(BuildDataset(store, {id1}, {1, 0}, config).ok());
  EXPECT_FALSE(BuildDataset(store, {9999}, {1}, config).ok());
}

TEST(BuildDatasetTest, MulticlassLabels) {
  StoreBuilder b;
  const auto a = b.AddDatabase(1, 0.0, 40.0);
  const auto c = b.AddDatabase(1, 5.0, 15.0);
  const auto e = b.AddDatabase(1, 10.0, -1.0);
  auto store = b.Finish();
  FeatureConfig config;
  auto dataset = BuildDataset(store, {a, c, e}, {2, 1, 0}, config, 3);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  EXPECT_EQ(dataset->num_classes(), 3);
  // Labels above num_classes are rejected.
  EXPECT_FALSE(BuildDataset(store, {a}, {2}, config, 2).ok());
}

TEST(ExtractRowTest, BirthHorizonSeesNoTelemetry) {
  StoreBuilder b;
  const auto id = b.AddDatabase(1, 0.0, -1.0, "db", "s",
                                SloIndexByName("S0"));
  b.AddSizeSample(id, 1, 0.5, 100.0);
  b.AddSloChange(id, 1, 1.0, SloIndexByName("S0"), SloIndexByName("S1"));
  auto store = b.Finish();
  FeatureConfig config;
  config.observation_days = 1.0 / 86400.0;  // one second after creation
  auto features = RowOf(config, store, store.databases()[0]);
  ASSERT_TRUE(features.ok()) << features.status();
  const auto names = FeatureNames(config);
  // Size features must be all zero (no samples visible yet) and the SLO
  // change at day 1 must be invisible.
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i].rfind("size_", 0) == 0) {
      EXPECT_DOUBLE_EQ((*features)[i], 0.0) << names[i];
    }
    if (names[i] == "slo_num_changes") {
      EXPECT_DOUBLE_EQ((*features)[i], 0.0);
    }
  }
}

TEST(FeatureFamilyNamesTest, PartitionCoversAllFeatures) {
  FeatureConfig config;
  const auto all = FeatureNames(config);
  size_t total = 0;
  for (const char* family :
       {"creation_time", "names", "size", "slo", "subscription_type",
        "subscription_history"}) {
    auto names = FeatureFamilyNames(config, family);
    ASSERT_TRUE(names.ok()) << family;
    total += names->size();
    // Every family feature must exist in the full layout.
    for (const auto& n : *names) {
      EXPECT_NE(std::find(all.begin(), all.end(), n), all.end()) << n;
    }
  }
  EXPECT_EQ(total, all.size());
  EXPECT_FALSE(FeatureFamilyNames(config, "bogus").ok());
}

// ---------------------------------------------------------------------------
// FeaturePlan batch extraction: bit-identity against per-id ExtractRow.
// ---------------------------------------------------------------------------

// A store that exercises every sibling-table edge the batch path
// handles specially: a rich subscription with a creation tie, a sibling
// created exactly at the prediction boundary, a sibling dropped exactly
// at a target's creation time, plus a lonely database (empty sibling
// context), a single-database subscription, and an all-censored
// subscription. `eligible` collects ids that survive the default 2-day
// window; `dropped_in_window` is one id ExtractRow rejects.
struct EdgeCaseStore {
  telemetry::TelemetryStore store;
  std::vector<telemetry::DatabaseId> eligible;
  telemetry::DatabaseId dropped_in_window = 0;
};

EdgeCaseStore MakeEdgeCaseStore() {
  StoreBuilder b;
  // Subscription 1: the rich one.
  const auto d0 = b.AddDatabase(1, 0.0, 40.0, "alpha-db", "srv1",
                                SloIndexByName("S0"),
                                telemetry::SubscriptionType::kPayAsYouGo);
  b.AddSizeSample(d0, 1, 0.5, 10.0);
  b.AddSizeSample(d0, 1, 1.0, 50.0);
  b.AddSizeSample(d0, 1, 1.8, 30.0);
  b.AddSloChange(d0, 1, 1.0, SloIndexByName("S0"), SloIndexByName("S2"));
  // Creation tie: same timestamp as d0.
  const auto d1 = b.AddDatabase(1, 0.0, -1.0, "MyDb9", "srv1",
                                SloIndexByName("S1"),
                                telemetry::SubscriptionType::kFreeTrial);
  // Dropped inside its own 2-day window: ineligible as a target, but a
  // visible group-3 sibling for d0.
  const auto d2 = b.AddDatabase(1, 1.0, 1.5, "tmp", "srv2");
  // Created exactly at d0's prediction time (Tp = day 2).
  const auto d3 = b.AddDatabase(1, 2.0, -1.0, "boundary", "srv2");
  // Dropped exactly at d4's creation time (Tc = day 5): excluded from
  // d4's group 1 but present in its group 2.
  const auto d5 = b.AddDatabase(1, 3.0, 5.0, "edge", "srv3");
  b.AddSizeSample(d5, 1, 3.5, 77.0);
  const auto d4 = b.AddDatabase(1, 5.0, 30.0, "late-db", "srv1",
                                SloIndexByName("S2"),
                                telemetry::SubscriptionType::kStudent);
  b.AddSizeSample(d4, 1, 5.5, 200.0);
  // Subscription 2: lonely database.
  const auto l0 = b.AddDatabase(2, 1.0, -1.0, "lonely", "srv9");
  // Subscription 3: all siblings censored.
  const auto c0 = b.AddDatabase(3, 0.0, -1.0, "cens-a", "srvA");
  b.AddSizeSample(c0, 3, 0.25, 5.0);
  const auto c1 = b.AddDatabase(3, 1.0, -1.0, "cens-b", "srvA");
  const auto c2 = b.AddDatabase(3, 4.0, -1.0, "cens-c", "srvB");
  // Subscription 4: single database, dropped well after the window.
  const auto s0 = b.AddDatabase(4, 2.0, 90.0, "solo", "srvS");
  return EdgeCaseStore{b.Finish(),
                       {d0, d1, d3, d4, d5, l0, c0, c1, c2, s0},
                       d2};
}

FeatureConfig ConfigFromMask(unsigned mask) {
  FeatureConfig config;
  config.include_creation_time = (mask & 1u) != 0;
  config.include_names = (mask & 2u) != 0;
  config.include_size = (mask & 4u) != 0;
  config.include_slo = (mask & 8u) != 0;
  config.include_subscription_type = (mask & 16u) != 0;
  config.include_subscription_history = (mask & 32u) != 0;
  config.include_name_ngrams = (mask & 64u) != 0;
  return config;
}

TEST(FeaturePlanTest, CompileLayoutMatchesFeatureNames) {
  for (unsigned mask = 0; mask < 128; ++mask) {
    const FeatureConfig config = ConfigFromMask(mask);
    auto plan = FeaturePlan::Compile(config);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(plan->num_features(), FeatureNames(config).size()) << mask;
    size_t sum = 0;
    for (size_t f = 0; f < kNumFeatureFamilies; ++f) {
      const auto& slot = plan->family(static_cast<FeatureFamily>(f));
      if (slot.enabled) {
        EXPECT_EQ(slot.offset, sum) << mask << " family " << f;
        sum += slot.width;
      } else {
        EXPECT_EQ(slot.width, 0u);
      }
    }
    EXPECT_EQ(sum, plan->num_features()) << mask;
  }
}

TEST(FeaturePlanTest, CompileRejectsInvalidObservationDays) {
  for (const double days :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), 1e300,
        std::nextafter(kMaxObservationDays, 1e9)}) {
    FeatureConfig config;
    config.observation_days = days;
    const auto plan = FeaturePlan::Compile(config);
    ASSERT_FALSE(plan.ok()) << days;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << days;
    EXPECT_NE(plan.status().message().find("observation_days"),
              std::string::npos)
        << plan.status();
  }
  for (const double days : {1.0 / 86400.0, kMaxObservationDays}) {
    FeatureConfig config;
    config.observation_days = days;
    EXPECT_TRUE(FeaturePlan::Compile(config).ok()) << days;
  }

  FeatureConfig config;
  config.name_ngram_buckets = kMaxNameNgramBuckets + 1;
  const auto too_wide = FeaturePlan::Compile(config);
  ASSERT_FALSE(too_wide.ok());
  EXPECT_NE(too_wide.status().message().find("name_ngram_buckets"),
            std::string::npos)
      << too_wide.status();
  config.name_ngram_buckets = kMaxNameNgramBuckets;
  config.include_name_ngrams = true;
  ASSERT_OK_AND_ASSIGN(const FeaturePlan widest, FeaturePlan::Compile(config));
  EXPECT_EQ(widest.family(FeatureFamily::kNameNgrams).width,
            static_cast<size_t>(kMaxNameNgramBuckets));

  // An uncompiled plan refuses the per-id call as the batch call does.
  StoreBuilder b;
  b.AddDatabase(1, 0.0, -1.0);
  auto store = b.Finish();
  const FeaturePlan uncompiled;
  std::vector<double> row;
  const Status row_status =
      uncompiled.ExtractRow(store, store.databases()[0], row);
  const Status batch_status = uncompiled.ExtractBatch(
      store, std::vector<telemetry::DatabaseId>{store.databases()[0].id},
      row.data());
  EXPECT_EQ(row_status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(row_status.message(), batch_status.message());
}

// The core acceptance test: every toggle combination, every edge-case
// target, EXPECT_EQ on raw doubles between the batch matrix and the
// per-id ExtractRow.
TEST(FeaturePlanTest, BatchBitIdenticalToScalarForAllToggles) {
  const EdgeCaseStore ecs = MakeEdgeCaseStore();
  for (unsigned mask = 0; mask < 128; ++mask) {
    const FeatureConfig config = ConfigFromMask(mask);
    auto plan = FeaturePlan::Compile(config);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const size_t width = plan->num_features();
    std::vector<double> matrix(ecs.eligible.size() * width, -42.0);
    ASSERT_OK(plan->ExtractBatch(ecs.store, ecs.eligible, matrix.data()));
    for (size_t i = 0; i < ecs.eligible.size(); ++i) {
      auto record = ecs.store.FindDatabase(ecs.eligible[i]);
      ASSERT_TRUE(record.ok());
      auto reference = RowOf(*plan, ecs.store, *record);
      ASSERT_TRUE(reference.ok()) << reference.status();
      ASSERT_EQ(reference->size(), width);
      for (size_t c = 0; c < width; ++c) {
        EXPECT_EQ(matrix[i * width + c], (*reference)[c])
            << "mask " << mask << " id " << ecs.eligible[i] << " col " << c;
      }
    }
  }
}

TEST(FeaturePlanTest, StrictModeReturnsScalarErrorsInIdsOrder) {
  const EdgeCaseStore ecs = MakeEdgeCaseStore();
  FeatureConfig config;
  auto plan = FeaturePlan::Compile(config);
  ASSERT_OK(plan.status());
  std::vector<double> matrix(3 * plan->num_features());

  // Unknown id: same message as FindDatabase.
  const std::vector<telemetry::DatabaseId> unknown = {ecs.eligible[0], 9999,
                                                      ecs.dropped_in_window};
  const Status unknown_status =
      plan->ExtractBatch(ecs.store, unknown, matrix.data());
  ASSERT_FALSE(unknown_status.ok());
  EXPECT_EQ(unknown_status.message(),
            ecs.store.FindDatabase(9999).status().message());

  // Dropped inside the window: same message as per-id ExtractRow, and
  // it is the FIRST failure in ids order that surfaces.
  const std::vector<telemetry::DatabaseId> dropped = {
      ecs.eligible[0], ecs.dropped_in_window, 9999};
  const Status dropped_status =
      plan->ExtractBatch(ecs.store, dropped, matrix.data());
  ASSERT_FALSE(dropped_status.ok());
  const auto reference = RowOf(
      *plan, ecs.store, *ecs.store.FindDatabase(ecs.dropped_in_window));
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(dropped_status.message(), reference.status().message());
}

TEST(FeaturePlanTest, PartialMarksFailedRowsAndLeavesThemUntouched) {
  const EdgeCaseStore ecs = MakeEdgeCaseStore();
  FeatureConfig config;
  auto plan = FeaturePlan::Compile(config);
  ASSERT_OK(plan.status());
  const size_t width = plan->num_features();
  const std::vector<telemetry::DatabaseId> ids = {
      ecs.eligible[0], 9999, ecs.dropped_in_window, ecs.eligible[1]};
  std::vector<double> matrix(ids.size() * width, 7.5);
  std::vector<uint8_t> row_ok;
  ASSERT_OK(
      plan->ExtractBatchPartial(ecs.store, ids, matrix.data(), &row_ok));
  ASSERT_EQ(row_ok.size(), ids.size());
  EXPECT_EQ(row_ok[0], 1);
  EXPECT_EQ(row_ok[1], 0);
  EXPECT_EQ(row_ok[2], 0);
  EXPECT_EQ(row_ok[3], 1);
  // Failed rows keep the caller's sentinel fill.
  for (size_t c = 0; c < width; ++c) {
    EXPECT_EQ(matrix[1 * width + c], 7.5);
    EXPECT_EQ(matrix[2 * width + c], 7.5);
  }
  // Extracted rows are bit-identical to per-id ExtractRow.
  for (const size_t row : {size_t{0}, size_t{3}}) {
    auto reference = RowOf(*plan, ecs.store, *ecs.store.FindDatabase(ids[row]));
    ASSERT_OK(reference.status());
    for (size_t c = 0; c < width; ++c) {
      EXPECT_EQ(matrix[row * width + c], (*reference)[c]) << row << "," << c;
    }
  }
}

TEST(FeaturePlanTest, PartialHandsBackEachExtractedRowsEdition) {
  const EdgeCaseStore ecs = MakeEdgeCaseStore();
  auto plan = FeaturePlan::Compile(FeatureConfig{});
  ASSERT_OK(plan.status());
  const std::vector<telemetry::DatabaseId> ids = {
      ecs.eligible[1], 9999, ecs.eligible[0], ecs.dropped_in_window};
  std::vector<double> matrix(ids.size() * plan->num_features());
  std::vector<uint8_t> row_ok;
  std::vector<telemetry::Edition> editions;
  ASSERT_OK(plan->ExtractBatchPartial(ecs.store, ids, matrix.data(), &row_ok,
                                      /*pool=*/nullptr, &editions));
  ASSERT_EQ(editions.size(), ids.size());
  EXPECT_EQ(row_ok, (std::vector<uint8_t>{1, 0, 1, 0}));
  for (const size_t row : {size_t{0}, size_t{2}}) {
    EXPECT_EQ(editions[row],
              ecs.store.FindDatabase(ids[row])->initial_edition())
        << row;
  }
}

TEST(FeaturePlanTest, ThreadPoolFanoutIsBitIdenticalToSerial) {
  // Large enough cohort to cross the fan-out threshold, with skewed
  // subscription sizes so chunk cuts land on real group boundaries.
  StoreBuilder b;
  std::vector<telemetry::DatabaseId> ids;
  uint64_t rng = 0x5EEDu;
  auto next = [&rng]() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>(rng >> 33);
  };
  for (int i = 0; i < 400; ++i) {
    // Subscription sizes skew: a few big subscriptions, many small.
    const int sub = 1 + static_cast<int>(next() % 12 == 0 ? next() % 3
                                                          : 3 + next() % 20);
    const double create_day = static_cast<double>(next() % 80) / 2.0;
    const bool censored = next() % 3 == 0;
    const double drop_day =
        censored ? -1.0 : create_day + 2.0 + static_cast<double>(next() % 60);
    const auto id = b.AddDatabase(
        sub, create_day, drop_day, "db" + std::to_string(i),
        "srv" + std::to_string(i % 7),
        static_cast<int>(next() % 4),
        static_cast<telemetry::SubscriptionType>(next() % 6));
    if (next() % 2 == 0) {
      b.AddSizeSample(id, sub, create_day + 0.5,
                      static_cast<double>(1 + next() % 500));
    }
    ids.push_back(id);
  }
  auto store = b.Finish();

  FeatureConfig config;
  auto plan = FeaturePlan::Compile(config);
  ASSERT_OK(plan.status());
  const size_t width = plan->num_features();
  std::vector<double> serial(ids.size() * width, 0.0);
  std::vector<double> pooled(ids.size() * width, 0.0);
  ASSERT_OK(plan->ExtractBatch(store, ids, serial.data()));
  ThreadPool pool(4, 64);
  ASSERT_OK(plan->ExtractBatch(store, ids, pooled.data(), &pool));
  EXPECT_EQ(std::memcmp(serial.data(), pooled.data(),
                        serial.size() * sizeof(double)),
            0);
  // And both match per-id ExtractRow row by row.
  for (size_t i = 0; i < ids.size(); ++i) {
    auto reference = RowOf(*plan, store, *store.FindDatabase(ids[i]));
    ASSERT_OK(reference.status());
    for (size_t c = 0; c < width; ++c) {
      EXPECT_EQ(serial[i * width + c], (*reference)[c]) << i << "," << c;
    }
  }
}

TEST(FeaturePlanTest, PlanBuildDatasetMatchesConfigOverload) {
  const EdgeCaseStore ecs = MakeEdgeCaseStore();
  FeatureConfig config;
  std::vector<int> labels(ecs.eligible.size());
  for (size_t i = 0; i < labels.size(); ++i) labels[i] = i % 2 == 0 ? 1 : 0;
  auto via_config = BuildDataset(ecs.store, ecs.eligible, labels, config);
  ASSERT_OK(via_config.status());
  auto plan = FeaturePlan::Compile(config);
  ASSERT_OK(plan.status());
  auto via_plan = BuildDataset(ecs.store, ecs.eligible, labels, *plan);
  ASSERT_OK(via_plan.status());
  ASSERT_EQ(via_plan->num_rows(), via_config->num_rows());
  ASSERT_EQ(via_plan->num_features(), via_config->num_features());
  EXPECT_EQ(via_plan->feature_names(), via_config->feature_names());
  for (size_t i = 0; i < via_plan->num_rows(); ++i) {
    EXPECT_EQ(via_plan->label(i), via_config->label(i));
    for (size_t c = 0; c < via_plan->num_features(); ++c) {
      EXPECT_EQ(via_plan->row(i)[c], via_config->row(i)[c]) << i << "," << c;
    }
  }
}

TEST(FeaturePlanTest, SpanOverloadsMatchVectorOverloads) {
  const EdgeCaseStore ecs = MakeEdgeCaseStore();
  const auto record = *ecs.store.FindDatabase(ecs.eligible[0]);
  const telemetry::Timestamp tp = record.created_at + 2 * 86400;

  std::vector<double> buf(kNameShapeWidth);
  NameShapeFeaturesInto(record.database_name, buf);
  EXPECT_EQ(buf, NameShapeFeatures(record.database_name));

  buf.assign(kSizeWidth, 0.0);
  SizeFeaturesInto(record, tp, buf);
  EXPECT_EQ(buf, SizeFeatures(record, tp));

  buf.assign(kSloWidth, 0.0);
  SloFeaturesInto(record, tp, buf);
  EXPECT_EQ(buf, SloFeatures(record, tp));

  buf.assign(kSubscriptionTypeWidth, 0.0);
  SubscriptionTypeFeaturesInto(record, buf);
  EXPECT_EQ(buf, SubscriptionTypeFeatures(record));

  buf.assign(kCreationTimeWidth, 0.0);
  CreationTimeFeaturesInto(ecs.store, record, buf);
  EXPECT_EQ(buf, CreationTimeFeatures(ecs.store, record));

  buf.assign(kSubscriptionHistoryWidth, 0.0);
  SubscriptionHistoryFeaturesInto(ecs.store, record, tp, buf);
  EXPECT_EQ(buf, SubscriptionHistoryFeatures(ecs.store, record, tp));

  buf.assign(8, 0.0);
  NameNgramFeaturesInto(record.database_name, buf);
  EXPECT_EQ(buf, NameNgramFeatures(record.database_name, 8));
}

}  // namespace
}  // namespace cloudsurv::features
