#include "features/features.h"

#include <algorithm>
#include <bitset>
#include <cctype>

#include "features/feature_plan.h"
#include "stats/descriptive.h"
#include "telemetry/civil_time.h"
#include "telemetry/types.h"

namespace cloudsurv::features {

namespace {

using telemetry::DatabaseRecord;
using telemetry::kSecondsPerDay;
using telemetry::SloLadder;
using telemetry::TelemetryStore;
using telemetry::Timestamp;

constexpr const char* kCreationTimeNames[] = {
    "create_day_of_week", "create_day_of_month", "create_week_of_year",
    "create_month",       "create_hour",         "create_is_holiday"};

constexpr const char* kNameShapeNames[] = {
    "length",        "distinct_chars",     "distinct_char_rate",
    "has_letters_and_digits", "has_mixed_case", "has_symbols"};

constexpr const char* kSizeNames[] = {"size_max_mb", "size_min_mb",
                                      "size_avg_mb", "size_std_mb",
                                      "size_rel_change"};

constexpr const char* kSloNames[] = {
    "slo_num_changes",      "slo_num_edition_changes",
    "slo_num_distinct",     "slo_num_distinct_editions",
    "slo_edition_at_pred",  "slo_level_at_pred",
    "slo_edition_delta",    "slo_level_delta",
    "slo_dtu_max",          "slo_dtu_min",
    "slo_dtu_avg"};

constexpr const char* kHistoryGroupNames[] = {"g1", "g2", "g3"};

static_assert(kCreationTimeWidth == std::size(kCreationTimeNames));
static_assert(kNameShapeWidth == std::size(kNameShapeNames));
static_assert(kSizeWidth == std::size(kSizeNames));
static_assert(kSloWidth == std::size(kSloNames));
static_assert(kSubscriptionTypeWidth ==
              static_cast<size_t>(telemetry::kNumSubscriptionTypes));

// Writes a RunningStats accumulator in the paper's summary order
// (max, min, avg, std), matching what AppendSummary produced from
// stats::Summarize — same Welford accumulator, same rounding.
void WriteSummary(const stats::RunningStats& acc, double* out) {
  out[0] = acc.max();
  out[1] = acc.min();
  out[2] = acc.mean();
  out[3] = acc.stddev();
}

}  // namespace

void CreationTimeFeaturesInto(const TelemetryStore& store,
                              const DatabaseRecord& record,
                              std::span<double> out) {
  const telemetry::CivilDateTime local =
      telemetry::ToCivil(record.created_at, store.utc_offset_minutes());
  out[0] = static_cast<double>(local.day_of_week);
  out[1] = static_cast<double>(local.day);
  out[2] = static_cast<double>(local.week_of_year);
  out[3] = static_cast<double>(local.month);
  out[4] = static_cast<double>(local.hour);
  out[5] = store.holidays().IsHolidayDate(local.year, local.month, local.day)
               ? 1.0
               : 0.0;
}

std::vector<double> CreationTimeFeatures(const TelemetryStore& store,
                                         const DatabaseRecord& record) {
  std::vector<double> out(kCreationTimeWidth);
  CreationTimeFeaturesInto(store, record, out);
  return out;
}

void NameShapeFeaturesInto(std::string_view name, std::span<double> out) {
  bool seen[256] = {};
  size_t distinct = 0;
  bool has_letter = false, has_digit = false, has_upper = false,
       has_lower = false, has_symbol = false;
  for (char raw : name) {
    const unsigned char c = static_cast<unsigned char>(raw);
    if (!seen[c]) {
      seen[c] = true;
      ++distinct;
    }
    if (std::isalpha(c)) {
      has_letter = true;
      if (std::isupper(c)) has_upper = true;
      if (std::islower(c)) has_lower = true;
    } else if (std::isdigit(c)) {
      has_digit = true;
    } else {
      has_symbol = true;
    }
  }
  const double len = static_cast<double>(name.size());
  out[0] = len;
  out[1] = static_cast<double>(distinct);
  out[2] = len > 0.0 ? static_cast<double>(distinct) / len : 0.0;
  out[3] = has_letter && has_digit ? 1.0 : 0.0;
  out[4] = has_upper && has_lower ? 1.0 : 0.0;
  out[5] = has_symbol ? 1.0 : 0.0;
}

std::vector<double> NameShapeFeatures(std::string_view name) {
  std::vector<double> out(kNameShapeWidth);
  NameShapeFeaturesInto(name, out);
  return out;
}

void SizeFeaturesInto(const DatabaseRecord& record,
                      Timestamp prediction_time, std::span<double> out) {
  stats::RunningStats acc;
  double first = 0.0;
  double last = 0.0;
  for (const telemetry::SizeObservation& s : record.size_samples) {
    if (s.timestamp > prediction_time) break;
    if (acc.count() == 0) first = s.size_mb;
    last = s.size_mb;
    acc.Add(s.size_mb);
  }
  WriteSummary(acc, out.data());
  double rel_change = 0.0;
  if (acc.count() >= 2 && first > 0.0) {
    rel_change = (last - first) / first;
  }
  out[4] = rel_change;
}

std::vector<double> SizeFeatures(const DatabaseRecord& record,
                                 Timestamp prediction_time) {
  std::vector<double> out(kSizeWidth);
  SizeFeaturesInto(record, prediction_time, out);
  return out;
}

void SloFeaturesInto(const DatabaseRecord& record,
                     Timestamp prediction_time, std::span<double> out) {
  const auto& ladder = SloLadder();
  int num_changes = 0;
  int num_edition_changes = 0;
  // Distinct sets as bitmasks; the ladder is a short fixed catalog.
  std::bitset<256> distinct_slos;
  std::bitset<16> distinct_editions;
  distinct_slos.set(static_cast<size_t>(record.initial_slo_index));
  distinct_editions.set(static_cast<size_t>(record.initial_edition()));
  stats::RunningStats dtus;
  dtus.Add(static_cast<double>(ladder[record.initial_slo_index].dtus));
  int current = record.initial_slo_index;
  for (const telemetry::SloChange& c : record.slo_changes) {
    if (c.timestamp > prediction_time) break;
    ++num_changes;
    if (ladder[c.old_slo_index].edition != ladder[c.new_slo_index].edition) {
      ++num_edition_changes;
    }
    current = c.new_slo_index;
    distinct_slos.set(static_cast<size_t>(current));
    distinct_editions.set(static_cast<size_t>(ladder[current].edition));
    dtus.Add(static_cast<double>(ladder[current].dtus));
  }
  const int edition_at_pred = static_cast<int>(ladder[current].edition);
  const int edition_at_create = static_cast<int>(record.initial_edition());
  out[0] = static_cast<double>(num_changes);
  out[1] = static_cast<double>(num_edition_changes);
  out[2] = static_cast<double>(distinct_slos.count());
  out[3] = static_cast<double>(distinct_editions.count());
  out[4] = static_cast<double>(edition_at_pred);
  out[5] = static_cast<double>(current);
  out[6] = static_cast<double>(edition_at_pred - edition_at_create);
  out[7] = static_cast<double>(current - record.initial_slo_index);
  out[8] = dtus.max();
  out[9] = dtus.min();
  out[10] = dtus.mean();
}

std::vector<double> SloFeatures(const DatabaseRecord& record,
                                Timestamp prediction_time) {
  std::vector<double> out(kSloWidth);
  SloFeaturesInto(record, prediction_time, out);
  return out;
}

void SubscriptionTypeFeaturesInto(const DatabaseRecord& record,
                                  std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  out[static_cast<size_t>(record.subscription_type)] = 1.0;
}

std::vector<double> SubscriptionTypeFeatures(const DatabaseRecord& record) {
  std::vector<double> out(kSubscriptionTypeWidth);
  SubscriptionTypeFeaturesInto(record, out);
  return out;
}

void SubscriptionHistoryFeaturesInto(const TelemetryStore& store,
                                     const DatabaseRecord& record,
                                     Timestamp prediction_time,
                                     std::span<double> out) {
  const Timestamp tc = record.created_at;
  const Timestamp tp = prediction_time;

  // Sibling groups; group 2 is a superset of group 1 (paper wording).
  // One pass in creation order feeding per-group Welford accumulators —
  // the same value sequences the materialized-group implementation fed
  // AppendSummary, so every output double is identical.
  size_t g1_count = 0, g2_count = 0, g3_count = 0;
  stats::RunningStats g1_size, g1_life, g2_size, g2_life;
  for (telemetry::DatabaseId sibling_id :
       store.DatabasesOfSubscription(record.subscription_id)) {
    if (sibling_id == record.id) continue;
    auto sibling = store.FindDatabase(sibling_id);
    if (!sibling.ok()) continue;
    const DatabaseRecord& s = *sibling;
    if (s.created_at > tp) continue;  // invisible at prediction time
    if (s.created_at < tc) {
      double peak = 0.0;
      for (const telemetry::SizeObservation& o : s.size_samples) {
        if (o.timestamp > tp) break;
        peak = std::max(peak, o.size_mb);
      }
      Timestamp end = tp;
      if (s.dropped_at.has_value() && *s.dropped_at < end) {
        end = *s.dropped_at;
      }
      const double lifespan = static_cast<double>(end - s.created_at) /
                              static_cast<double>(kSecondsPerDay);
      ++g2_count;
      g2_size.Add(peak);
      g2_life.Add(lifespan);
      if (!s.IsDroppedBy(tc)) {
        ++g1_count;
        g1_size.Add(peak);
        g1_life.Add(lifespan);
      }
    } else if (s.created_at > tc) {
      ++g3_count;
    }
  }

  out[0] = static_cast<double>(g1_count);
  out[1] = static_cast<double>(g2_count);
  out[2] = static_cast<double>(g3_count);
  WriteSummary(g1_size, out.data() + 3);
  WriteSummary(g1_life, out.data() + 7);
  WriteSummary(g2_size, out.data() + 11);
  WriteSummary(g2_life, out.data() + 15);
}

std::vector<double> SubscriptionHistoryFeatures(
    const TelemetryStore& store, const DatabaseRecord& record,
    Timestamp prediction_time) {
  std::vector<double> out(kSubscriptionHistoryWidth);
  SubscriptionHistoryFeaturesInto(store, record, prediction_time, out);
  return out;
}

void NameNgramFeaturesInto(std::string_view name, std::span<double> out) {
  std::fill(out.begin(), out.end(), 0.0);
  if (name.size() < 2) return;
  for (size_t i = 0; i + 1 < name.size(); ++i) {
    const uint32_t h = static_cast<uint32_t>(
                           static_cast<unsigned char>(name[i])) *
                           31u +
                       static_cast<uint32_t>(
                           static_cast<unsigned char>(name[i + 1]));
    out[h % out.size()] += 1.0;
  }
}

std::vector<double> NameNgramFeatures(std::string_view name, int buckets) {
  std::vector<double> out(static_cast<size_t>(std::max(1, buckets)), 0.0);
  NameNgramFeaturesInto(name, out);
  return out;
}

std::vector<std::string> FeatureNames(const FeatureConfig& config) {
  std::vector<std::string> names;
  if (config.include_creation_time) {
    for (const char* n : kCreationTimeNames) names.emplace_back(n);
  }
  if (config.include_names) {
    for (const char* prefix : {"server_name_", "db_name_"}) {
      for (const char* n : kNameShapeNames) {
        names.push_back(std::string(prefix) + n);
      }
    }
  }
  if (config.include_size) {
    for (const char* n : kSizeNames) names.emplace_back(n);
  }
  if (config.include_slo) {
    for (const char* n : kSloNames) names.emplace_back(n);
  }
  if (config.include_subscription_type) {
    for (int i = 0; i < telemetry::kNumSubscriptionTypes; ++i) {
      names.push_back(
          std::string("sub_type_") +
          telemetry::SubscriptionTypeToString(
              static_cast<telemetry::SubscriptionType>(i)));
    }
  }
  if (config.include_subscription_history) {
    for (const char* g : kHistoryGroupNames) {
      names.push_back(std::string("hist_") + g + "_count");
    }
    for (const char* g : {"g1", "g2"}) {
      for (const char* stat : {"max", "min", "avg", "std"}) {
        names.push_back(std::string("hist_") + g + "_size_" + stat);
      }
      for (const char* stat : {"max", "min", "avg", "std"}) {
        names.push_back(std::string("hist_") + g + "_lifespan_" + stat);
      }
    }
  }
  if (config.include_name_ngrams) {
    for (int i = 0; i < std::max(1, config.name_ngram_buckets); ++i) {
      names.push_back("db_name_ngram_" + std::to_string(i));
    }
  }
  return names;
}

Result<ml::Dataset> BuildDataset(const TelemetryStore& store,
                                 const std::vector<telemetry::DatabaseId>& ids,
                                 const std::vector<int>& labels,
                                 const FeatureConfig& config,
                                 int num_classes) {
  CLOUDSURV_ASSIGN_OR_RETURN(FeaturePlan plan, FeaturePlan::Compile(config));
  return BuildDataset(store, ids, labels, plan, num_classes,
                      /*pool=*/nullptr);
}

Result<std::vector<std::string>> FeatureFamilyNames(
    const FeatureConfig& config, const std::string& family) {
  FeatureConfig only;
  only.observation_days = config.observation_days;
  only.include_creation_time = false;
  only.include_names = false;
  only.include_size = false;
  only.include_slo = false;
  only.include_subscription_type = false;
  only.include_subscription_history = false;
  only.include_name_ngrams = false;
  only.name_ngram_buckets = config.name_ngram_buckets;
  if (family == "creation_time") {
    only.include_creation_time = true;
  } else if (family == "names") {
    only.include_names = true;
  } else if (family == "size") {
    only.include_size = true;
  } else if (family == "slo") {
    only.include_slo = true;
  } else if (family == "subscription_type") {
    only.include_subscription_type = true;
  } else if (family == "subscription_history") {
    only.include_subscription_history = true;
  } else {
    return Status::InvalidArgument("unknown feature family: " + family);
  }
  return FeatureNames(only);
}

}  // namespace cloudsurv::features
