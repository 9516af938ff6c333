// Section 3.1's fragmentation argument, quantified: "Creating databases
// ... requires free resources to be found. Dropping databases also runs
// counter to some load-balancing/fragmentation policies." This bench
// replays a region's create/resize/drop stream through the deployment
// replay over a two-tier catalog — a standard tier and a dense churn
// tier with the same node shape — so a policy changes only which fleet
// each tenant is first-fit packed into: naive (one shared fleet),
// longevity (classifier-guided churn segregation) and oracle (true
// lifespans). It reports nodes opened, node-days, fleet fragmentation
// and rejections at three node capacities.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/architecture.h"
#include "core/placement.h"
#include "core/service.h"

using namespace cloudsurv;

int main() {
  bench::PrintHeader(
      "Section 3.1: cluster fragmentation under first-fit placement");
  auto stores = bench::SimulateStudyRegions();
  const auto& store = stores[0];

  // Predictions from the deployable service, trained on Region-2 so the
  // placement region is out-of-sample — the `cloudsurv plan` path.
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

  for (int capacity : {1000, 2000, 4000}) {
    const std::string shape =
        " vcpus=8 memory_gb=64 storage_gb=2000 capacity_dtus=" +
        std::to_string(capacity) + "\n";
    auto catalog = core::ArchitectureCatalog::Parse(
        "resource vcpu 1.60\n"
        "resource memory_gb 0.20\n"
        "resource storage_gb 0.004\n"
        "architecture standard kind=standard" + shape +
        "architecture dense kind=dense" + shape);
    if (!catalog.ok()) {
      std::fprintf(stderr, "catalog: %s\n",
                   catalog.status().ToString().c_str());
      return 1;
    }
    std::printf("---- node capacity %d DTUs ----\n", capacity);
    std::printf("  %-10s %8s %10s %8s %9s\n", "policy", "nodes",
                "node-days", "frag", "rejected");
    for (const char* name : {"naive", "longevity", "oracle"}) {
      auto plan =
          core::MakePlacementPolicy(name)->Assign(store, *outcomes, *catalog);
      if (!plan.ok()) {
        std::fprintf(stderr, "policy %s failed: %s\n", name,
                     plan.status().ToString().c_str());
        return 1;
      }
      auto report = core::SimulateDeployment(store, *plan, *catalog, {});
      if (!report.ok()) {
        std::fprintf(stderr, "deployment replay (%s) failed: %s\n", name,
                     report.status().ToString().c_str());
        return 1;
      }
      size_t nodes = 0;
      for (const auto& usage : report->per_architecture) {
        nodes += usage.nodes_used;
      }
      std::printf("  %-10s %8zu %10.1f %8.3f %9zu\n", name, nodes,
                  report->node_days, report->mean_fragmentation,
                  report->rejected);
    }
    std::printf("\n");
  }

  std::printf("(nodes = distinct nodes ever opened across both tiers; "
              "frag = time-weighted mean wasted capacity share on active "
              "nodes.)\n");
  std::printf("finding: pure first-fit packing does NOT improve under "
              "churn segregation — splitting the fleet costs statistical "
              "multiplexing. The measured wins of longevity partitioning "
              "are interference wins (deferred rollouts, fewer SLA "
              "violations: see provisioning_policy), matching the "
              "paper's motivation of noisy neighbours and update "
              "scheduling rather than raw packing.\n");
  return 0;
}
