#include "core/provisioning.h"

#include <memory>
#include <string>

namespace cloudsurv::core {

namespace {

// Shared tier mapping for the prediction-driven and oracle policies:
// short-lived tenants go to the dense churn tier; long-lived tenants
// pay the durable premium only when they are Premium edition (where
// the SLA-credit exposure justifies it). Missing tiers degrade
// gracefully to the catalog default.
class TieredPolicy : public PlacementPolicy {
 public:
  Result<ArchitectureAssignmentPlan> Assign(
      const telemetry::TelemetryStore& store,
      const std::vector<PredictionOutcome>& outcomes,
      const ArchitectureCatalog& catalog) const final {
    if (!store.finalized()) {
      return Status::FailedPrecondition("store is not finalized");
    }
    ArchitectureAssignmentPlan plan;
    plan.default_index = catalog.default_index();
    const std::optional<size_t> dense =
        catalog.IndexOfKind(ArchitectureKind::kDense);
    const std::optional<size_t> durable =
        catalog.IndexOfKind(ArchitectureKind::kReplicated);
    for (const PredictionOutcome& outcome : outcomes) {
      if (IsShort(outcome)) {
        if (dense.has_value()) plan.assignments[outcome.id] = *dense;
      } else if (IsLong(outcome) && durable.has_value()) {
        CLOUDSURV_ASSIGN_OR_RETURN(const telemetry::DatabaseRecord record,
                                   store.FindDatabase(outcome.id));
        if (record.initial_edition() == telemetry::Edition::kPremium) {
          plan.assignments[outcome.id] = *durable;
        }
      }
    }
    return plan;
  }

 protected:
  virtual bool IsShort(const PredictionOutcome& outcome) const = 0;
  virtual bool IsLong(const PredictionOutcome& outcome) const = 0;
};

class NaivePlacementPolicy : public PlacementPolicy {
 public:
  const char* name() const override { return "naive"; }

  Result<ArchitectureAssignmentPlan> Assign(
      const telemetry::TelemetryStore& store,
      const std::vector<PredictionOutcome>& /*outcomes*/,
      const ArchitectureCatalog& catalog) const override {
    if (!store.finalized()) {
      return Status::FailedPrecondition("store is not finalized");
    }
    ArchitectureAssignmentPlan plan;
    plan.default_index = catalog.default_index();
    return plan;
  }
};

class LongevityPlacementPolicy : public TieredPolicy {
 public:
  const char* name() const override { return "longevity"; }

 protected:
  // Act only on confident predictions (section 5.3 partition).
  bool IsShort(const PredictionOutcome& o) const override {
    return o.confident && o.predicted_label == 0;
  }
  bool IsLong(const PredictionOutcome& o) const override {
    return o.confident && o.predicted_label == 1;
  }
};

class OraclePlacementPolicy : public TieredPolicy {
 public:
  explicit OraclePlacementPolicy(double threshold_days)
      : threshold_days_(threshold_days) {}

  const char* name() const override { return "oracle"; }

 protected:
  bool IsShort(const PredictionOutcome& o) const override {
    return o.observed && o.duration_days <= threshold_days_;
  }
  bool IsLong(const PredictionOutcome& o) const override {
    return o.duration_days > threshold_days_;
  }

 private:
  double threshold_days_;
};

}  // namespace

std::unique_ptr<PlacementPolicy> MakePlacementPolicy(
    std::string_view name, double oracle_threshold_days) {
  if (name == "naive") return std::make_unique<NaivePlacementPolicy>();
  if (name == "longevity") return std::make_unique<LongevityPlacementPolicy>();
  if (name == "oracle") {
    return std::make_unique<OraclePlacementPolicy>(oracle_threshold_days);
  }
  return nullptr;
}

Result<std::vector<PredictionOutcome>> OutcomesFromAssessments(
    const telemetry::TelemetryStore& store,
    const std::vector<std::optional<LongevityService::Assessment>>&
        assessments) {
  if (assessments.size() != store.num_databases()) {
    return Status::InvalidArgument(
        std::to_string(assessments.size()) + " assessments for " +
        std::to_string(store.num_databases()) + " databases");
  }
  std::vector<PredictionOutcome> outcomes;
  outcomes.reserve(assessments.size());
  for (size_t i = 0; i < assessments.size(); ++i) {
    const auto& assessment = assessments[i];
    if (!assessment.has_value()) continue;
    const auto record = store.databases()[i];
    PredictionOutcome outcome;
    outcome.id = record.id;
    outcome.predicted_label = assessment->predicted_label;
    outcome.positive_probability = assessment->positive_probability;
    outcome.confident = assessment->confident;
    outcome.duration_days = record.ObservedLifespanDays(store.window_end());
    outcome.observed = record.dropped_at.has_value() &&
                       *record.dropped_at <= store.window_end();
    outcome.true_label = outcome.duration_days > 30.0 ? 1 : 0;
    outcomes.push_back(outcome);
  }
  return outcomes;
}

}  // namespace cloudsurv::core
