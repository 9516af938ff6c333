#ifndef CLOUDSURV_CORE_PROVISIONING_H_
#define CLOUDSURV_CORE_PROVISIONING_H_

#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/architecture.h"
#include "core/prediction.h"
#include "core/service.h"
#include "telemetry/store.h"

namespace cloudsurv::core {

/// Placement decisions against an `ArchitectureCatalog`: each database
/// maps to an index into the catalog; databases absent from the map go
/// to `default_index` (normally the catalog's first standard tier).
/// Where an assessment's `Pool` names a *role*, the plan names the
/// *hardware* behind it; `SimulateDeployment` (placement.h) prices it.
struct ArchitectureAssignmentPlan {
  size_t default_index = 0;
  std::unordered_map<telemetry::DatabaseId, size_t> assignments;

  size_t ArchitectureOf(telemetry::DatabaseId id) const {
    auto it = assignments.find(id);
    return it == assignments.end() ? default_index : it->second;
  }
};

/// A placement policy maps lifespan predictions (with confidence, the
/// paper's section 5.3 partition) onto catalog architectures. Policies
/// are stateless and deterministic: the same (store, outcomes, catalog)
/// always yields the same plan.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Stable identifier used by the `plan` CLI and bench JSON.
  virtual const char* name() const = 0;

  /// Builds an assignment plan for every database in `outcomes`.
  /// Databases not mentioned in `outcomes` fall to the catalog default.
  virtual Result<ArchitectureAssignmentPlan> Assign(
      const telemetry::TelemetryStore& store,
      const std::vector<PredictionOutcome>& outcomes,
      const ArchitectureCatalog& catalog) const = 0;
};

/// Policy factory for the CLI / bench: "naive" (everything on the
/// default standard tier), "longevity" (prediction-driven: confident
/// short-lived to the dense churn tier; confident long-lived
/// Premium-edition tenants to the replicated durable tier; everything
/// uncertain stays on the default — acting only on confident
/// predictions per section 5.3), or "oracle" (the same mapping driven
/// by true lifespans: dropped within `oracle_threshold_days` counts as
/// short). Returns nullptr for unknown names.
std::unique_ptr<PlacementPolicy> MakePlacementPolicy(
    std::string_view name, double oracle_threshold_days = 30.0);

/// Turns `assessments` — parallel to `store.databases()`, as
/// `LongevityService::AssessMany` over every database returns them —
/// into the outcomes a `PlacementPolicy` reads: each scored database's
/// prediction and confidence, plus its observed lifespan and drop flag
/// for the oracle (`true_label` marks lifespans over 30 days).
/// Unscored databases (nullopt) are skipped. Fails if the sizes differ.
Result<std::vector<PredictionOutcome>> OutcomesFromAssessments(
    const telemetry::TelemetryStore& store,
    const std::vector<std::optional<LongevityService::Assessment>>&
        assessments);

}  // namespace cloudsurv::core

#endif  // CLOUDSURV_CORE_PROVISIONING_H_
