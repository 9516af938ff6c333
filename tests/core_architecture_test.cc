#include <limits>
#include <string>
#include <vector>

#include "core/architecture.h"
#include "core/placement.h"
#include "core/provisioning.h"
#include "gtest/gtest.h"
#include "telemetry/types.h"
#include "tests/test_util.h"

namespace cloudsurv::core {
namespace {

using cloudsurv::testing::StoreBuilder;
using telemetry::SloIndexByName;

// ---------------------------------------------------------------------
// Catalog parsing.

TEST(ArchitectureCatalogTest, DefaultSpecParsesWithFourTiers) {
  const ArchitectureCatalog catalog = ArchitectureCatalog::Default();
  ASSERT_EQ(catalog.size(), 4u);
  EXPECT_EQ(catalog.at(0).name(), "churn-dense");
  EXPECT_EQ(catalog.at(1).name(), "general");
  EXPECT_EQ(catalog.at(2).name(), "durable");
  EXPECT_EQ(catalog.at(3).name(), "premium");
  EXPECT_EQ(catalog.default_index(), *catalog.IndexOfName("general"));
  EXPECT_EQ(catalog.at(catalog.default_index()).kind(),
            ArchitectureKind::kStandard);
  // The default tier must host the biggest SLO on the ladder (P15,
  // 4000 DTUs) so no database is ever unplaceable.
  EXPECT_GE(catalog.at(catalog.default_index()).node_capacity_dtus(), 4000);
  // Per-DTU-day ordering the policies rely on:
  // dense < durable < general < premium.
  const double dense = catalog.at(0).PricePerDtuDay();
  const double general = catalog.at(1).PricePerDtuDay();
  const double durable = catalog.at(2).PricePerDtuDay();
  const double premium = catalog.at(3).PricePerDtuDay();
  EXPECT_LT(dense, durable);
  EXPECT_LT(durable, general);
  EXPECT_LT(general, premium);
}

TEST(ArchitectureCatalogTest, NodePriceIsReplicasTimesResourceBill) {
  ASSERT_OK_AND_ASSIGN(
      const ArchitectureCatalog catalog,
      ArchitectureCatalog::Parse(
          "resource vcpu 2.0\n"
          "resource memory_gb 0.5\n"
          "resource storage_gb 0.01\n"
          "architecture solo kind=standard vcpus=4 memory_gb=16 "
          "storage_gb=100 capacity_dtus=1000\n"
          "architecture trio kind=replicated vcpus=4 memory_gb=16 "
          "storage_gb=100 capacity_dtus=1000 replicas=3\n"));
  // per replica: 4*2.0 + 16*0.5 + 100*0.01 = 8 + 8 + 1 = 17.
  EXPECT_DOUBLE_EQ(catalog.at(0).node_price_per_day(), 17.0);
  EXPECT_DOUBLE_EQ(catalog.at(1).node_price_per_day(), 51.0);
  EXPECT_DOUBLE_EQ(catalog.at(0).PricePerDtuDay(), 0.017);
  EXPECT_EQ(catalog.at(1).replicas(), 3);
}

TEST(ArchitectureCatalogTest, KindDefaultsAndOverrides) {
  ASSERT_OK_AND_ASSIGN(
      const ArchitectureCatalog catalog,
      ArchitectureCatalog::Parse(
          "resource vcpu 1.0\n"
          "resource memory_gb 1.0\n"
          "resource storage_gb 1.0\n"
          "architecture d kind=dense vcpus=1 capacity_dtus=100\n"
          "architecture s kind=standard vcpus=1 capacity_dtus=100\n"
          "architecture r kind=replicated vcpus=1 capacity_dtus=100\n"
          "architecture p kind=premium vcpus=1 capacity_dtus=100\n"
          "architecture tame kind=dense vcpus=1 capacity_dtus=100 "
          "defer_maintenance=false disruption_cost=10.0 attach_cost=1.5\n"));
  const Architecture& dense = catalog.at(0);
  const Architecture& standard = catalog.at(1);
  const Architecture& replicated = catalog.at(2);
  const Architecture& premium = catalog.at(3);
  EXPECT_TRUE(dense.defers_maintenance());
  EXPECT_FALSE(dense.transparent_maintenance());
  EXPECT_DOUBLE_EQ(dense.attach_cost(), 0.02);
  EXPECT_DOUBLE_EQ(dense.detach_cost(), 0.01);
  EXPECT_FALSE(standard.defers_maintenance());
  EXPECT_FALSE(standard.transparent_maintenance());
  EXPECT_DOUBLE_EQ(standard.attach_cost(), 0.05);
  // DisruptionCost scales with the tenant's DTUs: cost * dtus / 100.
  EXPECT_DOUBLE_EQ(standard.DisruptionCost(200), 5.0);
  EXPECT_TRUE(replicated.transparent_maintenance());
  EXPECT_DOUBLE_EQ(replicated.DisruptionCost(100), 0.50);
  EXPECT_TRUE(premium.transparent_maintenance());
  // Spec keys override the kind defaults.
  const Architecture& tame = catalog.at(4);
  EXPECT_FALSE(tame.defers_maintenance());
  EXPECT_DOUBLE_EQ(tame.DisruptionCost(100), 10.0);
  EXPECT_DOUBLE_EQ(tame.attach_cost(), 1.5);
}

TEST(ArchitectureCatalogTest, ParseErrorsNameTheLine) {
  const std::string preamble =
      "resource vcpu 1.0\n"
      "resource memory_gb 1.0\n"
      "resource storage_gb 1.0\n";
  struct Case {
    const char* line;
    const char* want_error;
  };
  const Case cases[] = {
      {"architecture a kind=standard vcpuz=1 capacity_dtus=10",
       "catalog line 4: unknown key 'vcpuz'"},
      {"architecture a kind=standard vcpus=abc capacity_dtus=10",
       "catalog line 4: bad value 'abc' for key 'vcpus'"},
      {"architecture a vcpus=1 capacity_dtus=10",
       "catalog line 4: architecture 'a' is missing kind=..."},
      {"deploy a kind=standard",
       "catalog line 4: unknown directive 'deploy'"},
      {"architecture a kind=standard vcpus=1",
       "capacity_dtus must be positive"},
  };
  for (const Case& c : cases) {
    auto result = ArchitectureCatalog::Parse(preamble + c.line + "\n");
    ASSERT_FALSE(result.ok()) << c.line;
    EXPECT_NE(result.status().message().find(c.want_error),
              std::string::npos)
        << "input: " << c.line << "\ngot: " << result.status().message();
  }

  auto dup = ArchitectureCatalog::Parse(
      preamble +
      "architecture a kind=standard vcpus=1 capacity_dtus=10\n"
      "architecture a kind=dense vcpus=1 capacity_dtus=10\n");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find(
                "catalog line 5: duplicate architecture 'a'"),
            std::string::npos)
      << dup.status().message();

  auto unpriced = ArchitectureCatalog::Parse(
      "resource vcpu 1.0\n"
      "architecture a kind=standard vcpus=1 capacity_dtus=10\n");
  ASSERT_FALSE(unpriced.ok());
  EXPECT_NE(unpriced.status().message().find("all three resource prices"),
            std::string::npos);

  auto no_standard = ArchitectureCatalog::Parse(
      preamble + "architecture a kind=dense vcpus=1 capacity_dtus=10\n");
  ASSERT_FALSE(no_standard.ok());
  EXPECT_NE(no_standard.status().message().find(
                "at least one kind=standard architecture"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Policy mapping (the section 5.3 confidence partition onto tiers).

ArchitectureCatalog TestCatalog() {
  auto parsed = ArchitectureCatalog::Parse(
      "resource vcpu 1.0\n"
      "resource memory_gb 1.0\n"
      "resource storage_gb 1.0\n"
      "architecture dense kind=dense vcpus=1 capacity_dtus=100\n"
      "architecture std kind=standard vcpus=1 capacity_dtus=4000\n"
      "architecture rep kind=replicated vcpus=1 capacity_dtus=4000\n");
  EXPECT_TRUE(parsed.ok());
  return std::move(*parsed);
}

PredictionOutcome MakeOutcome(telemetry::DatabaseId id, int predicted,
                              bool confident) {
  PredictionOutcome o;
  o.id = id;
  o.predicted_label = predicted;
  o.confident = confident;
  return o;
}

TEST(PlacementPolicyTest, EmptyOutcomeVectorYieldsDefaultOnlyPlan) {
  StoreBuilder b;
  b.AddDatabase(1, 0.0, 10.0);
  auto store = b.Finish();
  const ArchitectureCatalog catalog = TestCatalog();
  for (const char* name : {"naive", "longevity", "oracle"}) {
    auto policy = MakePlacementPolicy(name);
    ASSERT_NE(policy, nullptr) << name;
    ASSERT_OK_AND_ASSIGN(const ArchitectureAssignmentPlan plan,
                         policy->Assign(store, {}, catalog));
    EXPECT_TRUE(plan.assignments.empty()) << name;
    EXPECT_EQ(plan.default_index, catalog.default_index()) << name;
    EXPECT_EQ(plan.ArchitectureOf(0), catalog.default_index()) << name;
  }
}

TEST(PlacementPolicyTest, AllUncertainPredictionsStayOnDefault) {
  StoreBuilder b;
  const auto a = b.AddDatabase(1, 0.0, 10.0);
  const auto c = b.AddDatabase(1, 0.0, -1.0);
  auto store = b.Finish();
  std::vector<PredictionOutcome> outcomes = {MakeOutcome(a, 0, false),
                                             MakeOutcome(c, 1, false)};
  auto policy = MakePlacementPolicy("longevity");
  ASSERT_OK_AND_ASSIGN(const ArchitectureAssignmentPlan plan,
                       policy->Assign(store, outcomes, TestCatalog()));
  EXPECT_TRUE(plan.assignments.empty());
}

TEST(PlacementPolicyTest, LongevityMapsConfidencePartitionOntoTiers) {
  StoreBuilder b;
  const auto short_db =
      b.AddDatabase(1, 0.0, 5.0, "a", "s", SloIndexByName("S2"));
  const auto long_premium =
      b.AddDatabase(1, 0.0, -1.0, "b", "s", SloIndexByName("P6"));
  const auto long_standard =
      b.AddDatabase(1, 0.0, -1.0, "c", "s", SloIndexByName("S3"));
  auto store = b.Finish();
  const ArchitectureCatalog catalog = TestCatalog();
  std::vector<PredictionOutcome> outcomes = {
      MakeOutcome(short_db, 0, true), MakeOutcome(long_premium, 1, true),
      MakeOutcome(long_standard, 1, true)};
  auto policy = MakePlacementPolicy("longevity");
  ASSERT_OK_AND_ASSIGN(const ArchitectureAssignmentPlan plan,
                       policy->Assign(store, outcomes, catalog));
  // Confident-short -> the dense churn tier.
  EXPECT_EQ(plan.ArchitectureOf(short_db),
            *catalog.IndexOfKind(ArchitectureKind::kDense));
  // Confident-long pays the durable premium only for Premium-edition
  // tenants (SLA-credit exposure justifies it).
  EXPECT_EQ(plan.ArchitectureOf(long_premium),
            *catalog.IndexOfKind(ArchitectureKind::kReplicated));
  EXPECT_EQ(plan.ArchitectureOf(long_standard), catalog.default_index());
}

TEST(PlacementPolicyTest, MissingTiersDegradeToDefault) {
  StoreBuilder b;
  const auto short_db = b.AddDatabase(1, 0.0, 5.0);
  const auto long_db =
      b.AddDatabase(1, 0.0, -1.0, "b", "s", SloIndexByName("P6"));
  auto store = b.Finish();
  // Standard-only catalog: nothing to segregate onto.
  ASSERT_OK_AND_ASSIGN(
      const ArchitectureCatalog catalog,
      ArchitectureCatalog::Parse(
          "resource vcpu 1.0\n"
          "resource memory_gb 1.0\n"
          "resource storage_gb 1.0\n"
          "architecture only kind=standard vcpus=1 capacity_dtus=4000\n"));
  std::vector<PredictionOutcome> outcomes = {MakeOutcome(short_db, 0, true),
                                             MakeOutcome(long_db, 1, true)};
  auto policy = MakePlacementPolicy("longevity");
  ASSERT_OK_AND_ASSIGN(const ArchitectureAssignmentPlan plan,
                       policy->Assign(store, outcomes, catalog));
  EXPECT_TRUE(plan.assignments.empty());
}

TEST(PlacementPolicyTest, OracleUsesTrueLifespansNotPredictions) {
  StoreBuilder b;
  const auto short_db =
      b.AddDatabase(1, 0.0, 10.0, "a", "s", SloIndexByName("S2"));
  const auto long_db =
      b.AddDatabase(1, 0.0, -1.0, "b", "s", SloIndexByName("P6"));
  auto store = b.Finish();
  const ArchitectureCatalog catalog = TestCatalog();
  // Predictions are deliberately inverted; the oracle must ignore them.
  PredictionOutcome s = MakeOutcome(short_db, 1, true);
  s.duration_days = 10.0;
  s.observed = true;
  PredictionOutcome l = MakeOutcome(long_db, 0, true);
  l.duration_days = 150.0;
  l.observed = false;  // censored, still long
  auto policy = MakePlacementPolicy("oracle", /*oracle_threshold_days=*/30.0);
  ASSERT_OK_AND_ASSIGN(const ArchitectureAssignmentPlan plan,
                       policy->Assign(store, {s, l}, catalog));
  EXPECT_EQ(plan.ArchitectureOf(short_db),
            *catalog.IndexOfKind(ArchitectureKind::kDense));
  EXPECT_EQ(plan.ArchitectureOf(long_db),
            *catalog.IndexOfKind(ArchitectureKind::kReplicated));
  EXPECT_EQ(MakePlacementPolicy("banana"), nullptr);
}

// ---------------------------------------------------------------------
// Deployment replay cost accounting.

TEST(SimulateDeploymentTest, HandComputedSingleTenantCost) {
  StoreBuilder b;
  b.AddDatabase(1, 0.0, 10.0, "db", "s", SloIndexByName("S2"));  // 50 DTUs
  auto store = b.Finish();
  ASSERT_OK_AND_ASSIGN(
      const ArchitectureCatalog catalog,
      ArchitectureCatalog::Parse(
          "resource vcpu 1.0\n"
          "resource memory_gb 1.0\n"
          "resource storage_gb 1.0\n"
          "architecture solo kind=standard vcpus=1 memory_gb=1 "
          "storage_gb=1 capacity_dtus=100\n"));
  // Node price: 1+1+1 = $3/day. 10 active days -> $30 infra; one
  // attach (0.05) + one observed-drop detach (0.02) -> $0.07 ops.
  ArchitectureAssignmentPlan plan;
  ASSERT_OK_AND_ASSIGN(const DeploymentReport report,
                       SimulateDeployment(store, plan, catalog, {}));
  EXPECT_EQ(report.placements, 1u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.sla_violations, 0u);
  EXPECT_NEAR(report.node_days, 10.0, 1e-9);
  EXPECT_NEAR(report.infra_cost, 30.0, 1e-9);
  EXPECT_NEAR(report.ops_cost, 0.07, 1e-9);
  EXPECT_NEAR(report.total_cost, 30.07, 1e-9);
  // 50 of 100 DTUs occupied the whole active interval.
  EXPECT_NEAR(report.mean_fragmentation, 0.5, 1e-9);
  ASSERT_EQ(report.per_architecture.size(), 1u);
  EXPECT_EQ(report.per_architecture[0].nodes_used, 1u);
  EXPECT_EQ(report.per_architecture[0].peak_active_nodes, 1u);
}

TEST(SimulateDeploymentTest, MaintenanceContractsPerKind) {
  StoreBuilder b;
  // Three 50-DTU tenants alive days 0..100, one per tier.
  const auto on_dense =
      b.AddDatabase(1, 0.0, 100.0, "a", "s", SloIndexByName("S2"));
  const auto on_std =
      b.AddDatabase(1, 0.0, 100.0, "b", "s", SloIndexByName("S2"));
  const auto on_rep =
      b.AddDatabase(1, 0.0, 100.0, "c", "s", SloIndexByName("S2"));
  auto store = b.Finish();
  const ArchitectureCatalog catalog = TestCatalog();
  ArchitectureAssignmentPlan plan;
  plan.default_index = catalog.default_index();
  plan.assignments[on_dense] = *catalog.IndexOfKind(ArchitectureKind::kDense);
  plan.assignments[on_rep] =
      *catalog.IndexOfKind(ArchitectureKind::kReplicated);
  DeploymentConfig config;
  config.maintenance_interval_days = 30.0;
  config.stale_grace_days = 45.0;
  ASSERT_OK_AND_ASSIGN(const DeploymentReport report,
                       SimulateDeployment(store, plan, catalog, config));
  // Rollouts at days 30/60/90 land on all three tenants (day 120 is
  // after the day-100 drops):
  //  - std tenant: 3 disruptions, 3 SLA violations;
  //  - dense tenant: day 30 inside the 45-day grace (avoided), days
  //    60/90 force-update -> 2 disruptions;
  //  - replicated tenant: 3 transparent hits, no SLA violations.
  EXPECT_EQ(report.disruptions, 5u);
  EXPECT_EQ(report.avoided_disruptions, 1u);
  EXPECT_EQ(report.transparent_disruptions, 3u);
  EXPECT_EQ(report.sla_violations, 5u);
  EXPECT_EQ(report.moves, 0u);
  // Replicated ops: attach 0.30 + detach 0.05 + 3 hits x
  // DisruptionCost(50) = 3 x 0.25.
  const size_t rep_idx = *catalog.IndexOfKind(ArchitectureKind::kReplicated);
  EXPECT_NEAR(report.per_architecture[rep_idx].ops_cost, 1.10, 1e-9);
  (void)on_std;
}

TEST(SimulateDeploymentTest, MidLifeSloGrowthMovesAcrossTiers) {
  StoreBuilder b;
  // Starts at S3 (100 DTUs, fills a dense node exactly), grows to P1
  // (125 DTUs) at day 10: no dense node can ever host it, so it must
  // relocate to the default tier (tenant-visible move + spillover).
  const auto grower =
      b.AddDatabase(1, 0.0, 50.0, "grow", "s", SloIndexByName("S3"));
  b.AddSloChange(grower, 1, 10.0, SloIndexByName("S3"),
                 SloIndexByName("P1"));
  auto store = b.Finish();
  const ArchitectureCatalog catalog = TestCatalog();  // dense cap 100
  ArchitectureAssignmentPlan plan;
  plan.default_index = catalog.default_index();
  plan.assignments[grower] = *catalog.IndexOfKind(ArchitectureKind::kDense);
  ASSERT_OK_AND_ASSIGN(const DeploymentReport report,
                       SimulateDeployment(store, plan, catalog, {}));
  EXPECT_EQ(report.placements, 1u);
  EXPECT_EQ(report.moves, 1u);
  EXPECT_EQ(report.spillovers, 1u);
  EXPECT_EQ(report.rejected, 0u);
  // The resize-forced relocation is the only tenant-visible incident
  // beyond maintenance.
  EXPECT_GE(report.sla_violations, 1u);
  const size_t dense_idx = *catalog.IndexOfKind(ArchitectureKind::kDense);
  EXPECT_EQ(report.per_architecture[dense_idx].placements, 1u);
}

TEST(SimulateDeploymentTest, UnhostableSloIsRejectedEverywhere) {
  StoreBuilder b;
  b.AddDatabase(1, 0.0, 10.0, "big", "s", SloIndexByName("P6"));  // 1000
  auto store = b.Finish();
  ASSERT_OK_AND_ASSIGN(
      const ArchitectureCatalog catalog,
      ArchitectureCatalog::Parse(
          "resource vcpu 1.0\n"
          "resource memory_gb 1.0\n"
          "resource storage_gb 1.0\n"
          "architecture tiny kind=standard vcpus=1 capacity_dtus=100\n"));
  ASSERT_OK_AND_ASSIGN(const DeploymentReport report,
                       SimulateDeployment(store, {}, catalog, {}));
  EXPECT_EQ(report.placements, 0u);
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_EQ(report.sla_violations, 1u);
  EXPECT_NEAR(report.total_cost, 0.0, 1e-9);
}

TEST(SimulateDeploymentTest, RejectsInvalidPlanAndConfig) {
  StoreBuilder b;
  const auto id = b.AddDatabase(1, 0.0, 10.0);
  auto store = b.Finish();
  const ArchitectureCatalog catalog = TestCatalog();

  ArchitectureAssignmentPlan bad_default;
  bad_default.default_index = catalog.size();
  EXPECT_FALSE(SimulateDeployment(store, bad_default, catalog, {}).ok());

  ArchitectureAssignmentPlan bad_assignment;
  bad_assignment.assignments[id] = catalog.size() + 3;
  EXPECT_FALSE(SimulateDeployment(store, bad_assignment, catalog, {}).ok());

  // Each period must be a finite step of at least one second that fits
  // int64 seconds: 1e-9 days truncates to a 0-second step (the rollout
  // grid would never advance) and 1e300 days overflows the cast.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -1.0, 1e-9, 0.5 / 86400.0, 1e300, 1.1e14,
                           kInf, -kInf, kNaN}) {
    SCOPED_TRACE(bad);
    DeploymentConfig bad_interval;
    bad_interval.maintenance_interval_days = bad;
    const auto interval_report =
        SimulateDeployment(store, {}, catalog, bad_interval);
    ASSERT_FALSE(interval_report.ok());
    EXPECT_EQ(interval_report.status().code(), StatusCode::kInvalidArgument);
    DeploymentConfig bad_grace;
    bad_grace.stale_grace_days = bad;
    const auto grace_report = SimulateDeployment(store, {}, catalog, bad_grace);
    ASSERT_FALSE(grace_report.ok());
    EXPECT_EQ(grace_report.status().code(), StatusCode::kInvalidArgument);
  }

  // Periods longer than the window are valid: no rollout ever lands,
  // and no tenant on a deferring tier ever leaves its grace period.
  DeploymentConfig long_periods;
  long_periods.maintenance_interval_days = 1e9;
  long_periods.stale_grace_days = 1e14;  // 8.64e18 s, under 2^63
  ASSERT_OK_AND_ASSIGN(const DeploymentReport report,
                       SimulateDeployment(store, {}, catalog, long_periods));
  EXPECT_EQ(report.placements, 1u);
  EXPECT_EQ(report.disruptions + report.avoided_disruptions +
                report.transparent_disruptions,
            0u);
}

TEST(SimulateDeploymentTest, HugeGracePeriodKeepsDeferringWithoutOverflow) {
  StoreBuilder b;
  const auto id = b.AddDatabase(1, 0.0, 100.0, "a", "s", SloIndexByName("S2"));
  auto store = b.Finish();
  const ArchitectureCatalog catalog = TestCatalog();
  ArchitectureAssignmentPlan plan;
  plan.default_index = catalog.default_index();
  plan.assignments[id] = *catalog.IndexOfKind(ArchitectureKind::kDense);
  DeploymentConfig config;
  config.maintenance_interval_days = 30.0;
  // 9.2233720362e18 s: valid, but created + grace would overflow int64.
  config.stale_grace_days = 1.0675199116e14;
  ASSERT_OK_AND_ASSIGN(const DeploymentReport report,
                       SimulateDeployment(store, plan, catalog, config));
  // Rollouts at days 30/60/90 are all deferred inside the grace period.
  EXPECT_EQ(report.avoided_disruptions, 3u);
  EXPECT_EQ(report.disruptions, 0u);
  EXPECT_EQ(report.sla_violations, 0u);
}

}  // namespace
}  // namespace cloudsurv::core
