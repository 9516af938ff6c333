#ifndef CLOUDSURV_CORE_PLACEMENT_H_
#define CLOUDSURV_CORE_PLACEMENT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/architecture.h"
#include "core/provisioning.h"
#include "telemetry/store.h"

namespace cloudsurv::core {

/// Maintenance knobs for the cost-accounting deployment replay (see
/// docs/provisioning.md for the cost-model equations). Both periods,
/// in seconds, must be finite, at least one and within int64 range (the
/// replay truncates them to whole seconds); an interval longer than the
/// window means no rollouts.
struct DeploymentConfig {
  /// Non-critical service rollouts happen this often; each one hits
  /// every alive tenant, with the consequence decided by the tenant's
  /// architecture (disrupt / defer / transparent).
  double maintenance_interval_days = 14.0;
  /// On maintenance-deferring (dense) tiers a tenant skips rollouts
  /// until it outlives this grace period; after that every rollout
  /// force-updates it (section 3.1's stale-software bound).
  double stale_grace_days = 45.0;
};

/// Per-architecture slice of a deployment replay.
struct ArchitectureUsage {
  std::string name;
  size_t placements = 0;         ///< Initial placements landing here.
  size_t nodes_used = 0;         ///< Distinct nodes ever opened.
  size_t peak_active_nodes = 0;  ///< Peak simultaneously non-empty nodes.
  /// Integrated active-node time in days (a node accrues only while it
  /// hosts at least one tenant — idle nodes scale to zero).
  double node_days = 0.0;
  double infra_cost = 0.0;  ///< node_days * node_price_per_day.
  double ops_cost = 0.0;    ///< Attach + detach + disruption dollars here.
  /// Time-weighted mean wasted-capacity fraction on this tier's active
  /// nodes: the waste fraction is integrated between consecutive replay
  /// events and divided by the time any node of the tier was active
  /// (0.0 if none ever was).
  double mean_fragmentation = 0.0;
};

/// Dollar-and-disruption outcome of replaying a region against an
/// architecture assignment plan. `total_cost = infra_cost + ops_cost`;
/// `sla_violations` counts tenant-visible incidents: non-transparent
/// maintenance disruptions (forced updates included) + resize-forced
/// moves + rejections.
struct DeploymentReport {
  size_t num_databases = 0;
  size_t placements = 0;  ///< Databases placed at creation.
  size_t rejected = 0;    ///< No architecture could ever host the SLO.
  size_t moves = 0;       ///< Resize-forced relocations (tenant-visible).
  /// Placements that could not go on the plan's preferred architecture
  /// (SLO exceeds its node capacity) and cascaded to another tier.
  size_t spillovers = 0;
  /// Tenant-visible maintenance hits (standard tiers, and dense tiers
  /// past the grace period).
  size_t disruptions = 0;
  /// Rollout hits a maintenance-deferring tier absorbed inside grace.
  size_t avoided_disruptions = 0;
  /// Rollout hits hidden behind replica failover: they cost money
  /// (ops_cost) but are not SLA violations.
  size_t transparent_disruptions = 0;
  size_t sla_violations = 0;
  double node_days = 0.0;
  double infra_cost = 0.0;
  double ops_cost = 0.0;
  double total_cost = 0.0;
  /// Fleet-wide time-weighted mean wasted-capacity fraction (all tiers'
  /// active nodes pooled; same definition as the per-tier one).
  double mean_fragmentation = 0.0;
  /// One entry per catalog architecture, in catalog order.
  std::vector<ArchitectureUsage> per_architecture;

  std::string ToString() const;
  /// Single-line JSON object (bench/CLI machine output).
  std::string ToJson() const;
};

/// Replays the region chronologically against `plan` over `catalog`:
/// first-fit packing onto per-architecture node fleets (the classic
/// fragmentation victim under this arrival/departure pattern, section
/// 3.1; a tenant whose SLO exceeds its preferred tier's node spills
/// preferred -> default -> first fitting tier -> rejected), resize
/// overflows relocate the tenant (detach + attach + one SLA violation),
/// and maintenance rollouts every `maintenance_interval_days` hit every
/// alive tenant with its architecture's contract. Deterministic in
/// (store, plan, catalog, config) — the replay draws no randomness.
/// Returns InvalidArgument for a plan index outside the catalog or a
/// config period that is not a valid step (see `DeploymentConfig`).
Result<DeploymentReport> SimulateDeployment(
    const telemetry::TelemetryStore& store,
    const ArchitectureAssignmentPlan& plan,
    const ArchitectureCatalog& catalog, const DeploymentConfig& config);

}  // namespace cloudsurv::core

#endif  // CLOUDSURV_CORE_PLACEMENT_H_
