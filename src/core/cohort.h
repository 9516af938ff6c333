#ifndef CLOUDSURV_CORE_COHORT_H_
#define CLOUDSURV_CORE_COHORT_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "survival/survival_data.h"
#include "telemetry/store.h"

namespace cloudsurv::core {

/// The paper's lifespan taxonomy (section 3.3): ephemeral T <= 2 days,
/// short-lived 2 < T <= 30 days, long-lived T > 30 days. A censored
/// database whose observed span has not yet crossed a class boundary is
/// kUnknown for classification purposes (it still contributes to KM
/// estimates as a censored observation).
enum class LifespanClass {
  kEphemeral = 0,
  kShortLived = 1,
  kLongLived = 2,
  kUnknown = 3,
};

inline constexpr double kEphemeralMaxDays = 2.0;
inline constexpr double kShortLivedMaxDays = 30.0;

const char* LifespanClassToString(LifespanClass c);

/// Classifies one database given everything visible up to the store's
/// window end. Dropped databases classify exactly; censored databases
/// classify as long-lived once their observed span exceeds
/// `long_threshold_days`, and as kUnknown otherwise.
LifespanClass ClassifyLifespan(const telemetry::DatabaseRecord& record,
                               telemetry::Timestamp window_end,
                               double ephemeral_threshold_days =
                                   kEphemeralMaxDays,
                               double long_threshold_days =
                                   kShortLivedMaxDays);

/// Filters for assembling survival-study populations.
struct CohortFilter {
  /// Keep only databases that survived at least this many days ("2 day
  /// survival minimum" of Figure 1). 0 disables.
  double min_survival_days = kEphemeralMaxDays;
  /// Keep only databases created under this edition (creation edition,
  /// so subgroups stay mutually exclusive — section 5.1).
  std::optional<telemetry::Edition> edition;
  /// If set, keep only databases that did / did not change edition
  /// during their observed lifetime (the "changed"/"always" split of
  /// Figure 3).
  std::optional<bool> changed_edition;
};

/// Ids of databases passing the filter, ordered by id.
std::vector<telemetry::DatabaseId> SelectCohort(
    const telemetry::TelemetryStore& store, const CohortFilter& filter);

/// Builds right-censored survival data for the filtered cohort:
/// duration = observed lifespan (days), event = dropped inside the
/// window.
Result<survival::SurvivalData> CohortSurvivalData(
    const telemetry::TelemetryStore& store, const CohortFilter& filter);

/// Survival data for an explicit id list (e.g. test-set databases split
/// by predicted class).
Result<survival::SurvivalData> SurvivalDataForIds(
    const telemetry::TelemetryStore& store,
    const std::vector<telemetry::DatabaseId>& ids);

/// The supervised task population for "after x days, will the database
/// live more than y days?" (section 4.1): databases alive at x days
/// whose label is determined (dropped, or censored with > y days
/// observed). Parallel arrays.
struct PredictionCohort {
  std::vector<telemetry::DatabaseId> ids;
  std::vector<int> labels;  ///< 1 = long-lived (> y days), 0 otherwise.
  /// Creation edition (record.initial_edition()) of each database.
  std::vector<telemetry::Edition> editions;
  /// Observed lifespan (days) and drop indicator, for KM curves of
  /// classified groups.
  std::vector<double> durations;
  std::vector<bool> observed;
  /// Databases excluded because their label is still unknown
  /// (censored before y days).
  size_t num_unknown_excluded = 0;
};

/// Builds the prediction cohort for the given x/y and optional creation
/// edition restriction.
Result<PredictionCohort> BuildPredictionCohort(
    const telemetry::TelemetryStore& store, double observe_days,
    double long_threshold_days,
    std::optional<telemetry::Edition> edition = std::nullopt);

/// Subscription-level usage statistics backing Observation 3.1.
struct SubscriptionUsageStats {
  size_t num_subscriptions = 0;
  /// Subscriptions all of whose databases are ephemeral.
  size_t num_ephemeral_only = 0;
  /// Subscriptions owning both ephemeral and non-ephemeral databases.
  size_t num_mixed = 0;
  size_t num_databases = 0;
  size_t num_ephemeral_databases = 0;

  double ephemeral_only_subscription_fraction() const {
    return num_subscriptions == 0
               ? 0.0
               : static_cast<double>(num_ephemeral_only) /
                     static_cast<double>(num_subscriptions);
  }
  double ephemeral_database_fraction() const {
    return num_databases == 0
               ? 0.0
               : static_cast<double>(num_ephemeral_databases) /
                     static_cast<double>(num_databases);
  }
};

/// Computes Observation 3.1-style statistics over the whole store.
/// Censored databases with < 2 observed days count as ephemeral here
/// (conservative; they are a tiny sliver of the window).
SubscriptionUsageStats ComputeSubscriptionUsageStats(
    const telemetry::TelemetryStore& store);

/// Identifies subscriptions exhibiting Observation 3.1's frequent-
/// cycling pattern, using only telemetry visible at `as_of`: at least
/// `min_databases` databases already dropped within the ephemeral
/// threshold, and no database ever observed past it. The paper's
/// actionable takeaway: "by simply looking at historical data, we can
/// identify customers that follow this pattern, and keep their
/// databases separately".
std::vector<telemetry::SubscriptionId> IdentifyEphemeralCyclers(
    const telemetry::TelemetryStore& store, telemetry::Timestamp as_of,
    size_t min_databases = 3,
    double ephemeral_threshold_days = kEphemeralMaxDays);

}  // namespace cloudsurv::core

#endif  // CLOUDSURV_CORE_COHORT_H_
