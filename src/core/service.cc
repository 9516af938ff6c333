#include "core/service.h"

#include <algorithm>
#include <cstring>

#include "artifact/format.h"
#include "artifact/writer.h"
#include "core/cohort.h"
#include "features/feature_plan.h"

namespace cloudsurv::core {

const char* PoolToString(Pool pool) {
  switch (pool) {
    case Pool::kGeneral:
      return "general";
    case Pool::kChurn:
      return "churn";
    case Pool::kStable:
      return "stable";
  }
  return "unknown";
}

namespace {

using telemetry::Edition;
using telemetry::TelemetryStore;

/// Fits one slot's forest and returns its compiled form with the slot's
/// confidence threshold; the trainable forest is dropped here.
Result<std::pair<ml::FlatForest, double>> TrainOne(
    const TelemetryStore& history, std::optional<Edition> edition,
    const LongevityService::Options& options) {
  CLOUDSURV_ASSIGN_OR_RETURN(
      PredictionCohort cohort,
      BuildPredictionCohort(history, options.observe_days,
                            options.long_threshold_days, edition));
  if (cohort.ids.size() < options.min_cohort_size) {
    return Status::FailedPrecondition("cohort too small");
  }
  features::FeatureConfig feature_config = options.feature_config;
  feature_config.observation_days = options.observe_days;
  CLOUDSURV_ASSIGN_OR_RETURN(
      ml::Dataset dataset,
      features::BuildDataset(history, cohort.ids, cohort.labels,
                             feature_config));
  const double q = dataset.ClassFraction(1);
  if (q == 0.0 || q == 1.0) {
    return Status::FailedPrecondition("single-class cohort");
  }
  ml::RandomForestClassifier forest;
  CLOUDSURV_RETURN_NOT_OK(
      forest.Fit(dataset, options.forest_params, options.seed));
  CLOUDSURV_ASSIGN_OR_RETURN(ml::FlatForest flat,
                             ml::FlatForest::Compile(forest));
  return std::make_pair(std::move(flat), std::max(q, 1.0 - q));
}

}  // namespace

Result<LongevityService> LongevityService::Train(
    const TelemetryStore& history, const Options& options) {
  if (!history.readable()) {
    return Status::FailedPrecondition("history store is not readable");
  }
  LongevityService service;
  service.options_ = options;

  // Pooled fallback first; it must exist.
  auto pooled = TrainOne(history, std::nullopt, options);
  if (!pooled.ok()) {
    return Status::FailedPrecondition(
        "cannot train pooled model: " + pooled.status().message());
  }
  service.pooled_model_.present = true;
  service.pooled_model_.flat = std::move(pooled->first);
  service.pooled_model_.threshold = pooled->second;

  for (int e = 0; e < telemetry::kNumEditions; ++e) {
    auto slot = TrainOne(history, static_cast<Edition>(e), options);
    if (!slot.ok()) continue;  // fall back to pooled for this edition
    auto& model = service.edition_models_[static_cast<size_t>(e)];
    model.present = true;
    model.flat = std::move(slot->first);
    model.threshold = slot->second;
  }
  return service;
}

const LongevityService::ModelSlot& LongevityService::SlotFor(
    Edition edition) const {
  const ModelSlot& slot =
      edition_models_[static_cast<size_t>(edition)];
  return slot.present ? slot : pooled_model_;
}

bool LongevityService::HasEditionModel(Edition edition) const {
  return edition_models_[static_cast<size_t>(edition)].present;
}

Result<LongevityService::Assessment> LongevityService::Assess(
    const TelemetryStore& store, telemetry::DatabaseId id) const {
  if (!pooled_model_.present) {
    return Status::FailedPrecondition("service is not trained");
  }
  CLOUDSURV_ASSIGN_OR_RETURN(const telemetry::DatabaseRecord record,
                             store.FindDatabase(id));
  features::FeatureConfig feature_config = options_.feature_config;
  feature_config.observation_days = options_.observe_days;
  CLOUDSURV_ASSIGN_OR_RETURN(
      std::vector<double> row,
      features::ExtractFeatures(store, record, feature_config));

  const Edition edition = record.initial_edition();
  const ModelSlot& slot = SlotFor(edition);
  Assessment assessment;
  assessment.model_name =
      &slot == &pooled_model_ ? "pooled"
                              : telemetry::EditionToString(edition);
  assessment.positive_probability = slot.flat.PredictPositive(row);
  assessment.predicted_label =
      assessment.positive_probability > 0.5 ? 1 : 0;
  assessment.confidence_threshold = slot.threshold;
  assessment.confident =
      assessment.positive_probability >= slot.threshold ||
      assessment.positive_probability <= 1.0 - slot.threshold;
  if (assessment.confident) {
    assessment.recommended_pool =
        assessment.predicted_label == 1 ? Pool::kStable : Pool::kChurn;
  } else {
    assessment.recommended_pool = Pool::kGeneral;
  }
  return assessment;
}

Result<std::vector<std::optional<LongevityService::Assessment>>>
LongevityService::AssessMany(const TelemetryStore& store,
                             const std::vector<telemetry::DatabaseId>& ids,
                             const ml::FlatForest::BatchOptions& batch) const {
  if (!pooled_model_.present) {
    return Status::FailedPrecondition("service is not trained");
  }
  std::vector<std::optional<Assessment>> out(ids.size());
  features::FeatureConfig feature_config = options_.feature_config;
  feature_config.observation_days = options_.observe_days;
  auto plan_or = features::FeaturePlan::Compile(feature_config);
  if (!plan_or.ok()) {
    // A config the plan rejects is one every per-id extraction would
    // reject too, and per-id Assess maps that to nullopt.
    return out;
  }
  const features::FeaturePlan& plan = *plan_or;
  const size_t width = plan.num_features();

  // Group ids by resolved model slot so every group is extracted and
  // scored in one fused batch (at most kNumEditions + 1 groups): one
  // pass fills a reused row-major matrix, which feeds the compiled
  // forest directly — no per-row vectors, no intermediate Dataset.
  struct Group {
    const ModelSlot* slot = nullptr;
    std::string model_name;
    std::vector<telemetry::DatabaseId> group_ids;
    std::vector<size_t> positions;  ///< Index into ids/out.
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto record = store.FindDatabase(ids[i]);
    if (!record.ok()) continue;  // nullopt, as per-id Assess would fail
    const Edition edition = (*record).initial_edition();
    const ModelSlot& slot = SlotFor(edition);
    Group* group = nullptr;
    for (auto& g : groups) {
      if (g.slot == &slot) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.emplace_back();
      group = &groups.back();
      group->slot = &slot;
      group->model_name = &slot == &pooled_model_
                              ? "pooled"
                              : telemetry::EditionToString(edition);
    }
    group->group_ids.push_back(ids[i]);
    group->positions.push_back(i);
  }

  std::vector<double> matrix;
  std::vector<uint8_t> row_ok;
  std::vector<double> probs;
  std::vector<size_t> scored_positions;
  for (auto& group : groups) {
    const size_t group_size = group.group_ids.size();
    matrix.assign(group_size * width, 0.0);
    // No pool here: AssessMany runs inside the serving engine's own
    // pool workers, and nested submission into a bounded queue could
    // deadlock. The caller parallelizes across shard batches instead.
    CLOUDSURV_RETURN_NOT_OK(plan.ExtractBatchPartial(
        store, group.group_ids, matrix.data(), &row_ok, /*pool=*/nullptr));
    scored_positions.clear();
    size_t num_rows = 0;
    for (size_t k = 0; k < group_size; ++k) {
      if (!row_ok[k]) continue;  // nullopt, as per-id Assess would fail
      if (num_rows != k) {
        std::memcpy(matrix.data() + num_rows * width,
                    matrix.data() + k * width, width * sizeof(double));
      }
      scored_positions.push_back(group.positions[k]);
      ++num_rows;
    }
    if (num_rows == 0) continue;
    const ml::FlatForest& flat = group.slot->flat;
    if (width != flat.num_features()) {
      return Status::InvalidArgument("feature count mismatch");
    }
    probs.resize(num_rows);
    CLOUDSURV_RETURN_NOT_OK(
        flat.PredictPositiveBatch(matrix.data(), num_rows, probs.data(), batch));
    for (size_t k = 0; k < scored_positions.size(); ++k) {
      Assessment assessment;
      assessment.model_name = group.model_name;
      assessment.positive_probability = probs[k];
      assessment.predicted_label =
          assessment.positive_probability > 0.5 ? 1 : 0;
      assessment.confidence_threshold = group.slot->threshold;
      assessment.confident =
          assessment.positive_probability >= group.slot->threshold ||
          assessment.positive_probability <= 1.0 - group.slot->threshold;
      if (assessment.confident) {
        assessment.recommended_pool =
            assessment.predicted_label == 1 ? Pool::kStable : Pool::kChurn;
      } else {
        assessment.recommended_pool = Pool::kGeneral;
      }
      out[scored_positions[k]] = std::move(assessment);
    }
  }
  return out;
}

namespace {

/// Slot layout inside a service artifact: 0 is the pooled fallback,
/// 1 + e the dedicated model for edition e.
std::string SlotName(uint32_t slot) {
  return slot == 0 ? "pooled"
                   : telemetry::EditionToString(
                         static_cast<Edition>(slot - 1));
}

/// The FeatureConfig switches in ServiceMeta::feature_flags bit order.
constexpr bool features::FeatureConfig::*kFeatureSwitches[] = {
    &features::FeatureConfig::include_creation_time,
    &features::FeatureConfig::include_names,
    &features::FeatureConfig::include_size,
    &features::FeatureConfig::include_slo,
    &features::FeatureConfig::include_subscription_type,
    &features::FeatureConfig::include_subscription_history,
    &features::FeatureConfig::include_name_ngrams,
};

/// Stores `config` as its difference from the default FeatureConfig, so
/// the all-zero bytes of files written before it was stored decode to
/// the default (see artifact::ServiceMeta).
void EncodeFeatureConfig(const features::FeatureConfig& config,
                         artifact::ServiceMeta* meta) {
  const features::FeatureConfig defaults;
  meta->feature_flags = 0;
  for (size_t i = 0; i < std::size(kFeatureSwitches); ++i) {
    if (config.*kFeatureSwitches[i] != defaults.*kFeatureSwitches[i]) {
      meta->feature_flags |= 1u << i;
    }
  }
  // Modular, so every bucket count round-trips exactly.
  meta->ngram_buckets_delta = static_cast<int32_t>(
      static_cast<uint32_t>(config.name_ngram_buckets) -
      static_cast<uint32_t>(defaults.name_ngram_buckets));
}

Result<features::FeatureConfig> DecodeFeatureConfig(
    const artifact::ServiceMeta& meta) {
  features::FeatureConfig config;
  if ((meta.feature_flags >> std::size(kFeatureSwitches)) != 0) {
    return Status::InvalidArgument(
        "service meta sets unknown feature flag bits " +
        std::to_string(meta.feature_flags));
  }
  for (size_t i = 0; i < std::size(kFeatureSwitches); ++i) {
    if ((meta.feature_flags >> i) & 1u) {
      config.*kFeatureSwitches[i] = !(config.*kFeatureSwitches[i]);
    }
  }
  config.name_ngram_buckets =
      static_cast<int>(static_cast<uint32_t>(config.name_ngram_buckets) +
                       static_cast<uint32_t>(meta.ngram_buckets_delta));
  return config;
}

}  // namespace

Status LongevityService::SaveArtifact(const std::string& path) const {
  if (!pooled_model_.present) {
    return Status::FailedPrecondition("service is not trained");
  }
  artifact::ArtifactWriter writer(artifact::PayloadKind::kService);

  artifact::ServiceMeta meta{};
  meta.observe_days = options_.observe_days;
  meta.long_threshold_days = options_.long_threshold_days;
  EncodeFeatureConfig(options_.feature_config, &meta);
  meta.num_models = 1;
  for (const auto& slot : edition_models_) {
    if (slot.present) ++meta.num_models;
  }
  writer.AddStruct(artifact::SectionId::kServiceMeta, 0, meta);

  auto add_slot = [&writer](uint32_t slot_index,
                            const ModelSlot& slot) -> Status {
    const std::string name = SlotName(slot_index);
    if (name.size() > artifact::kMaxModelNameLen) {
      return Status::InvalidArgument("model name too long: " + name);
    }
    artifact::ModelEntry entry{};
    entry.slot = slot_index;
    entry.name_len = static_cast<uint32_t>(name.size());
    entry.threshold = slot.threshold;
    std::memcpy(entry.name, name.data(), name.size());
    writer.AddStruct(artifact::SectionId::kModelEntry, slot_index, entry);
    // The node and tree arrays a reader binds zero-copy.
    return slot.flat.WriteTo(writer, slot_index);
  };
  CLOUDSURV_RETURN_NOT_OK(add_slot(0, pooled_model_));
  for (int e = 0; e < telemetry::kNumEditions; ++e) {
    const auto& slot = edition_models_[static_cast<size_t>(e)];
    if (!slot.present) continue;
    CLOUDSURV_RETURN_NOT_OK(
        add_slot(static_cast<uint32_t>(e) + 1, slot));
  }
  return writer.WriteFile(path);
}

Result<LongevityService> LongevityService::LoadArtifact(
    const std::string& path,
    const artifact::ArtifactReader::Options& reader_options) {
  CLOUDSURV_ASSIGN_OR_RETURN(
      artifact::ArtifactReader reader,
      artifact::ArtifactReader::Open(path, reader_options));
  if (reader.payload() != artifact::PayloadKind::kService) {
    return Status::InvalidArgument(
        path + ": artifact holds payload kind " +
        std::to_string(static_cast<uint32_t>(reader.payload())) +
        ", not a service snapshot (write one with 'cloudsurv train')");
  }
  CLOUDSURV_ASSIGN_OR_RETURN(
      artifact::ServiceMeta meta,
      reader.Struct<artifact::ServiceMeta>(
          artifact::SectionId::kServiceMeta, 0));

  LongevityService service;
  service.options_.observe_days = meta.observe_days;
  service.options_.long_threshold_days = meta.long_threshold_days;
  CLOUDSURV_ASSIGN_OR_RETURN(service.options_.feature_config,
                             DecodeFeatureConfig(meta));
  const size_t feature_width =
      features::FeatureWidth(service.options_.feature_config);

  uint32_t loaded = 0;
  for (const artifact::SectionEntry& section : reader.sections()) {
    if (section.id !=
        static_cast<uint32_t>(artifact::SectionId::kModelEntry)) {
      continue;
    }
    CLOUDSURV_ASSIGN_OR_RETURN(
        artifact::ModelEntry entry,
        reader.Struct<artifact::ModelEntry>(
            artifact::SectionId::kModelEntry, section.index));
    if (entry.slot != section.index ||
        entry.slot > static_cast<uint32_t>(telemetry::kNumEditions)) {
      return Status::InvalidArgument(
          path + ": model entry has out-of-range slot " +
          std::to_string(entry.slot));
    }
    if (entry.name_len > artifact::kMaxModelNameLen) {
      return Status::InvalidArgument(
          path + ": model entry has oversized name length " +
          std::to_string(entry.name_len));
    }
    const std::string name(entry.name, entry.name_len);
    if (name != SlotName(entry.slot)) {
      return Status::InvalidArgument(
          path + ": slot " + std::to_string(entry.slot) +
          " is named '" + name + "', expected '" +
          SlotName(entry.slot) + "'");
    }
    ModelSlot* slot =
        entry.slot == 0
            ? &service.pooled_model_
            : &service.edition_models_[entry.slot - 1];
    if (slot->present) {
      return Status::InvalidArgument(path + ": duplicate model slot " +
                                     std::to_string(entry.slot));
    }

    // Bind the compiled form straight to the artifact bytes; the slot's
    // FlatForest pins the mapping via its backing reference.
    CLOUDSURV_ASSIGN_OR_RETURN(slot->flat,
                               ml::FlatForest::FromView(reader, entry.slot));
    if (slot->flat.num_features() != feature_width) {
      return Status::InvalidArgument(
          path + ": model '" + name + "' reads " +
          std::to_string(slot->flat.num_features()) +
          " features, but its feature configuration extracts " +
          std::to_string(feature_width));
    }
    slot->threshold = entry.threshold;
    slot->present = true;
    ++loaded;
  }
  if (loaded != meta.num_models) {
    return Status::InvalidArgument(
        path + ": service meta declares " +
        std::to_string(meta.num_models) + " models, found " +
        std::to_string(loaded));
  }
  if (!service.pooled_model_.present) {
    return Status::InvalidArgument(path +
                                   ": artifact lacks a pooled model");
  }
  return service;
}

}  // namespace cloudsurv::core
