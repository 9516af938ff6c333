// What-if replay of Section 3.1's longevity-guided resource
// provisioning: the naive / longevity / oracle placement policies
// priced against the built-in four-tier catalog (docs/provisioning.md)
// by the deployment replay. One summary line per policy goes to
// stderr; the full reports are emitted as JSON on stdout and gated in
// CI by tools/bench_check.py against
// bench/baselines/provisioning_policy.json.
//
// The replay is deterministic in CLOUDSURV_SUBS, so the JSON document
// (costs included) is reproducible run to run.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/placement.h"
#include "core/service.h"

using namespace cloudsurv;

int main() {
  std::fprintf(stderr,
               "Section 3.1: longevity-guided provisioning, what-if "
               "replay (policy x architecture)\n");
  auto stores = bench::SimulateStudyRegions();
  const auto& store = stores[0];

  // Deployable service trained on Region-2 so the planned region is
  // out-of-sample, then one batch assessment over every database —
  // the same path the `cloudsurv plan` verb takes.
  core::LongevityService::Options options;
  options.forest_params.num_trees = 60;
  options.forest_params.max_depth = 12;
  auto service = core::LongevityService::Train(stores[1], options);
  if (!service.ok()) {
    std::fprintf(stderr, "service training failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  std::vector<telemetry::DatabaseId> ids;
  ids.reserve(store.databases().size());
  for (const auto& record : store.databases()) ids.push_back(record.id);
  auto assessments = service->AssessMany(store, ids, {});
  if (!assessments.ok()) {
    std::fprintf(stderr, "assessment failed: %s\n",
                 assessments.status().ToString().c_str());
    return 1;
  }
  auto outcomes = core::OutcomesFromAssessments(store, *assessments);
  if (!outcomes.ok()) {
    std::fprintf(stderr, "outcomes failed: %s\n",
                 outcomes.status().ToString().c_str());
    return 1;
  }

  const core::ArchitectureCatalog catalog =
      core::ArchitectureCatalog::Default();
  const core::DeploymentConfig deploy;  // 14-day rollouts, 45-day grace.
  struct PolicyRun {
    std::string policy;
    core::DeploymentReport report;
  };
  std::vector<PolicyRun> runs;
  for (const char* name : {"naive", "longevity", "oracle"}) {
    auto policy = core::MakePlacementPolicy(name);
    auto plan = policy->Assign(store, *outcomes, catalog);
    if (!plan.ok()) {
      std::fprintf(stderr, "policy %s failed: %s\n", name,
                   plan.status().ToString().c_str());
      return 1;
    }
    auto report = core::SimulateDeployment(store, *plan, catalog, deploy);
    if (!report.ok()) {
      std::fprintf(stderr, "deployment replay (%s) failed: %s\n", name,
                   report.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "%-10s total=$%-11.2f infra=$%-11.2f ops=$%-9.2f "
                 "sla=%-5zu frag=%.3f\n",
                 name, report->total_cost, report->infra_cost,
                 report->ops_cost, report->sla_violations,
                 report->mean_fragmentation);
    runs.push_back({name, std::move(*report)});
  }

  const core::DeploymentReport& naive = runs[0].report;
  const core::DeploymentReport& longevity = runs[1].report;
  std::printf("{\n");
  std::printf("  \"bench\": \"provisioning_policy\",\n");
  std::printf("  \"subs\": %zu, \"databases\": %zu,\n",
              bench::RegionSubscriptions(), store.num_databases());
  std::printf("  \"maintenance_interval_days\": %.1f, \"grace_days\": "
              "%.1f,\n",
              deploy.maintenance_interval_days, deploy.stale_grace_days);
  std::printf("  \"catalog\": [");
  for (size_t a = 0; a < catalog.size(); ++a) {
    std::printf("%s\"%s\"", a > 0 ? ", " : "", catalog.at(a).name().c_str());
  }
  std::printf("],\n");
  std::printf("  \"policies\": [\n");
  for (size_t r = 0; r < runs.size(); ++r) {
    std::printf("    {\"policy\": \"%s\", \"report\": %s}%s\n",
                runs[r].policy.c_str(), runs[r].report.ToJson().c_str(),
                r + 1 < runs.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"ratios\": {\"naive_vs_longevity_cost\": %.4f, "
              "\"naive_vs_longevity_ops\": %.4f, "
              "\"naive_vs_longevity_sla\": %.4f}\n",
              longevity.total_cost > 0.0
                  ? naive.total_cost / longevity.total_cost
                  : 0.0,
              longevity.ops_cost > 0.0
                  ? naive.ops_cost / longevity.ops_cost
                  : 0.0,
              longevity.sla_violations > 0
                  ? static_cast<double>(naive.sla_violations) /
                        static_cast<double>(longevity.sla_violations)
                  : 0.0);
  std::printf("}\n");
  bench::EmitRegistrySnapshot();
  return 0;
}
