#ifndef CLOUDSURV_FEATURES_FEATURES_H_
#define CLOUDSURV_FEATURES_FEATURES_H_

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ml/dataset.h"
#include "telemetry/store.h"

namespace cloudsurv::features {

/// Bounds FeaturePlan::Compile enforces: ten years of observation (past
/// any telemetry window, far inside a Timestamp), and n-gram buckets
/// few enough that a count read from a file cannot inflate every row.
inline constexpr double kMaxObservationDays = 3650.0;
inline constexpr int kMaxNameNgramBuckets = 1024;

/// Which feature families to extract (paper section 4.2). Families can
/// be toggled off for the ablation experiments of section 5.4.
struct FeatureConfig {
  /// The observation span x, in days: features may only use telemetry
  /// with timestamp <= created_at + observation_days (no leakage).
  /// Must lie in (0, kMaxObservationDays].
  double observation_days = 2.0;
  bool include_creation_time = true;
  bool include_names = true;
  bool include_size = true;
  bool include_slo = true;
  bool include_subscription_type = true;
  bool include_subscription_history = true;
  /// Hashed character-bigram counts of the database name (the paper's
  /// n-gram experiment; found not to help — off by default).
  bool include_name_ngrams = false;
  /// At most kMaxNameNgramBuckets; values below 1 mean one bucket.
  int name_ngram_buckets = 8;
};

/// Fixed per-family column widths (the names family is emitted twice,
/// once per name; the n-gram family width is max(1, buckets)).
inline constexpr size_t kCreationTimeWidth = 6;
inline constexpr size_t kNameShapeWidth = 6;
inline constexpr size_t kSizeWidth = 5;
inline constexpr size_t kSloWidth = 11;
inline constexpr size_t kSubscriptionTypeWidth = 6;
inline constexpr size_t kSubscriptionHistoryWidth = 19;

/// Ordered names of the features produced under `config`; matches the
/// row layout of FeaturePlan (features/feature_plan.h) exactly.
std::vector<std::string> FeatureNames(const FeatureConfig& config);

/// --- Per-family extractors (exposed for unit testing) ---
///
/// Each family has an allocation-free `*Into` form writing into a span
/// of exactly the family's width; the vector-returning forms are thin
/// wrappers kept for tests and call sites that want a fresh vector.

/// Creation-time features (5 + holiday flag): local day of week (1-7),
/// day of month, week of year, month, hour of day, is-regional-holiday.
void CreationTimeFeaturesInto(const telemetry::TelemetryStore& store,
                              const telemetry::DatabaseRecord& record,
                              std::span<double> out);
std::vector<double> CreationTimeFeatures(
    const telemetry::TelemetryStore& store,
    const telemetry::DatabaseRecord& record);

/// Name-shape features (6): length, distinct characters, distinct-char
/// rate, contains letters+digits, contains upper+lower case, contains
/// non-alphanumeric symbols. Applied to both server and database names.
void NameShapeFeaturesInto(std::string_view name, std::span<double> out);
std::vector<double> NameShapeFeatures(std::string_view name);

/// Size features (5): max/min/avg/stddev of observed size (MB) within
/// the observation window, and relative change from first to last
/// sample.
void SizeFeaturesInto(const telemetry::DatabaseRecord& record,
                      telemetry::Timestamp prediction_time,
                      std::span<double> out);
std::vector<double> SizeFeatures(const telemetry::DatabaseRecord& record,
                                 telemetry::Timestamp prediction_time);

/// Edition / performance-level features (11): #SLO changes, #edition
/// changes, #distinct SLOs, #distinct editions, edition at prediction,
/// level at prediction, edition delta and level delta vs creation, and
/// max/min/avg DTUs held during the window.
void SloFeaturesInto(const telemetry::DatabaseRecord& record,
                     telemetry::Timestamp prediction_time,
                     std::span<double> out);
std::vector<double> SloFeatures(const telemetry::DatabaseRecord& record,
                                telemetry::Timestamp prediction_time);

/// One-hot over the subscription type at creation (6 values).
void SubscriptionTypeFeaturesInto(const telemetry::DatabaseRecord& record,
                                  std::span<double> out);
std::vector<double> SubscriptionTypeFeatures(
    const telemetry::DatabaseRecord& record);

/// Subscription-history features (19), computed strictly from telemetry
/// visible at prediction time Tp, for the paper's three sibling groups:
///   group 1 — siblings created before Tc and still alive at Tc;
///   group 2 — all siblings created before Tc (superset of group 1);
///   group 3 — siblings created in (Tc, Tp].
/// Per group: count; for groups 1-2 additionally max/min/avg/std of the
/// siblings' peak observed size and of their observed lifespans (days,
/// censored at Tp).
void SubscriptionHistoryFeaturesInto(
    const telemetry::TelemetryStore& store,
    const telemetry::DatabaseRecord& record,
    telemetry::Timestamp prediction_time, std::span<double> out);
std::vector<double> SubscriptionHistoryFeatures(
    const telemetry::TelemetryStore& store,
    const telemetry::DatabaseRecord& record,
    telemetry::Timestamp prediction_time);

/// Hashed character-bigram counts of the database name, one bucket per
/// element of `out` (the vector form has max(1, buckets)).
void NameNgramFeaturesInto(std::string_view name, std::span<double> out);
std::vector<double> NameNgramFeatures(std::string_view name, int buckets);

/// Builds an ml::Dataset for the given databases and labels. The
/// default is the paper's binary task (1 = long-lived); pass a larger
/// `num_classes` for multi-class labelings (e.g. the 3-class lifespan
/// taxonomy). `ids` and `labels` are parallel.
Result<ml::Dataset> BuildDataset(const telemetry::TelemetryStore& store,
                                 const std::vector<telemetry::DatabaseId>& ids,
                                 const std::vector<int>& labels,
                                 const FeatureConfig& config,
                                 int num_classes = 2);

/// Names of all features in a family, used by ablation benches to drop
/// one family at a time. `family` is one of: "creation_time", "names",
/// "size", "slo", "subscription_type", "subscription_history".
Result<std::vector<std::string>> FeatureFamilyNames(
    const FeatureConfig& config, const std::string& family);

}  // namespace cloudsurv::features

#endif  // CLOUDSURV_FEATURES_FEATURES_H_
