#include "core/cohort.h"

namespace cloudsurv::core {

using telemetry::DatabaseId;
using telemetry::DatabaseRecord;
using telemetry::TelemetryStore;

const char* LifespanClassToString(LifespanClass c) {
  switch (c) {
    case LifespanClass::kEphemeral:
      return "ephemeral";
    case LifespanClass::kShortLived:
      return "short-lived";
    case LifespanClass::kLongLived:
      return "long-lived";
    case LifespanClass::kUnknown:
      return "unknown";
  }
  return "unknown";
}

LifespanClass ClassifyLifespan(const DatabaseRecord& record,
                               telemetry::Timestamp window_end,
                               double ephemeral_threshold_days,
                               double long_threshold_days) {
  const double observed = record.ObservedLifespanDays(window_end);
  const bool dropped =
      record.dropped_at.has_value() && *record.dropped_at <= window_end;
  if (dropped) {
    if (observed <= ephemeral_threshold_days) return LifespanClass::kEphemeral;
    if (observed <= long_threshold_days) return LifespanClass::kShortLived;
    return LifespanClass::kLongLived;
  }
  // Censored: only a lower bound on T is known.
  if (observed > long_threshold_days) return LifespanClass::kLongLived;
  return LifespanClass::kUnknown;
}

std::vector<DatabaseId> SelectCohort(const TelemetryStore& store,
                                     const CohortFilter& filter) {
  std::vector<DatabaseId> out;
  for (const DatabaseRecord& record : store.databases()) {
    const double observed =
        record.ObservedLifespanDays(store.window_end());
    if (observed < filter.min_survival_days) continue;
    if (filter.edition.has_value() &&
        record.initial_edition() != *filter.edition) {
      continue;
    }
    if (filter.changed_edition.has_value() &&
        record.ChangedEditionDuringLifetime() != *filter.changed_edition) {
      continue;
    }
    out.push_back(record.id);
  }
  return out;
}

Result<survival::SurvivalData> CohortSurvivalData(
    const TelemetryStore& store, const CohortFilter& filter) {
  return SurvivalDataForIds(store, SelectCohort(store, filter));
}

Result<survival::SurvivalData> SurvivalDataForIds(
    const TelemetryStore& store, const std::vector<DatabaseId>& ids) {
  std::vector<survival::Observation> obs;
  obs.reserve(ids.size());
  for (DatabaseId id : ids) {
    CLOUDSURV_ASSIGN_OR_RETURN(const DatabaseRecord record,
                               store.FindDatabase(id));
    survival::Observation o;
    o.duration = record.ObservedLifespanDays(store.window_end());
    o.observed = record.dropped_at.has_value() &&
                 *record.dropped_at <= store.window_end();
    obs.push_back(o);
  }
  return survival::SurvivalData::Make(std::move(obs));
}

Result<PredictionCohort> BuildPredictionCohort(
    const TelemetryStore& store, double observe_days,
    double long_threshold_days, std::optional<telemetry::Edition> edition) {
  if (observe_days <= 0.0 || long_threshold_days <= observe_days) {
    return Status::InvalidArgument(
        "need 0 < observe_days < long_threshold_days");
  }
  PredictionCohort cohort;
  for (const DatabaseRecord& record : store.databases()) {
    if (edition.has_value() && record.initial_edition() != *edition) {
      continue;
    }
    const double observed =
        record.ObservedLifespanDays(store.window_end());
    // Prediction is made observe_days after creation; the database must
    // be alive then (section 4.1).
    if (observed < observe_days) continue;
    const bool dropped = record.dropped_at.has_value() &&
                         *record.dropped_at <= store.window_end();
    int label;
    if (observed > long_threshold_days) {
      label = 1;  // survived past y days (drop later or censored later)
    } else if (dropped) {
      label = 0;  // dropped within (x, y]
    } else {
      // Censored before the y-day boundary: outcome unknown.
      ++cohort.num_unknown_excluded;
      continue;
    }
    cohort.ids.push_back(record.id);
    cohort.labels.push_back(label);
    cohort.editions.push_back(record.initial_edition());
    cohort.durations.push_back(observed);
    cohort.observed.push_back(dropped);
  }
  return cohort;
}

std::vector<telemetry::SubscriptionId> IdentifyEphemeralCyclers(
    const TelemetryStore& store, telemetry::Timestamp as_of,
    size_t min_databases, double ephemeral_threshold_days) {
  std::vector<telemetry::SubscriptionId> cyclers;
  for (telemetry::SubscriptionId sub : store.AllSubscriptions()) {
    size_t resolved_ephemeral = 0;
    bool disqualified = false;
    for (DatabaseId id : store.DatabasesOfSubscription(sub)) {
      auto record = store.FindDatabase(id);
      if (!record.ok()) continue;
      const DatabaseRecord& r = *record;
      if (r.created_at > as_of) continue;  // not visible yet
      const double observed = r.ObservedLifespanDays(as_of);
      const bool dropped = r.IsDroppedBy(as_of);
      if (observed > ephemeral_threshold_days) {
        disqualified = true;  // outlived the ephemeral window
        break;
      }
      if (dropped) ++resolved_ephemeral;
    }
    if (!disqualified && resolved_ephemeral >= min_databases) {
      cyclers.push_back(sub);
    }
  }
  return cyclers;
}

SubscriptionUsageStats ComputeSubscriptionUsageStats(
    const TelemetryStore& store) {
  SubscriptionUsageStats stats;
  for (telemetry::SubscriptionId sub : store.AllSubscriptions()) {
    const auto& dbs = store.DatabasesOfSubscription(sub);
    if (dbs.empty()) continue;
    ++stats.num_subscriptions;
    size_t ephemeral = 0;
    for (DatabaseId id : dbs) {
      auto record = store.FindDatabase(id);
      if (!record.ok()) continue;
      ++stats.num_databases;
      const double observed =
          (*record).ObservedLifespanDays(store.window_end());
      if (observed <= kEphemeralMaxDays) {
        ++ephemeral;
        ++stats.num_ephemeral_databases;
      }
    }
    if (ephemeral == dbs.size()) {
      ++stats.num_ephemeral_only;
    } else if (ephemeral > 0) {
      ++stats.num_mixed;
    }
  }
  return stats;
}

}  // namespace cloudsurv::core
