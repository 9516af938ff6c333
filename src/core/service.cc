#include "core/service.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "artifact/format.h"
#include "artifact/writer.h"
#include "core/cohort.h"
#include "core/prediction.h"

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

/// The service's features: feature_config observed for observe_days.
Result<features::FeaturePlan> CompilePlan(
    const LongevityService::Options& options) {
  features::FeatureConfig config = options.feature_config;
  config.observation_days = options.observe_days;
  return features::FeaturePlan::Compile(config);
}

/// The confidence threshold max(q, 1-q) of a slot trained on the
/// `rows` of a cohort labelled `labels` (q = the long-lived share), or
/// why the slot cannot be trained.
Result<double> SlotThreshold(const std::vector<size_t>& rows,
                             const std::vector<int>& labels,
                             size_t min_cohort_size) {
  if (rows.size() < min_cohort_size) {
    return Status::FailedPrecondition("cohort too small");
  }
  size_t positives = 0;
  for (size_t r : rows) positives += labels[r] == 1 ? 1 : 0;
  const double q = rows.empty() ? 0.0
                                : static_cast<double>(positives) /
                                      static_cast<double>(rows.size());
  if (q == 0.0 || q == 1.0) {
    return Status::FailedPrecondition("single-class cohort");
  }
  return std::max(q, 1.0 - q);
}

}  // namespace

Result<LongevityService> LongevityService::Train(
    const TelemetryStore& history, const Options& options) {
  if (!history.readable()) {
    return Status::FailedPrecondition("history store is not readable");
  }
  LongevityService service;
  service.options_ = options;
  CLOUDSURV_ASSIGN_OR_RETURN(service.plan_, CompilePlan(options));
  auto pooled_failure = [](const Status& status) {
    return Status::FailedPrecondition("cannot train pooled model: " +
                                      status.message());
  };

  // One cohort and one feature extraction. An edition's cohort is
  // exactly the pooled cohort filtered by creation edition, in the same
  // order, so every slot trains on a row view of one dataset.
  auto cohort = BuildPredictionCohort(history, options.observe_days,
                                      options.long_threshold_days);
  if (!cohort.ok()) return pooled_failure(cohort.status());
  if (cohort->ids.size() < options.min_cohort_size) {
    return pooled_failure(Status::FailedPrecondition("cohort too small"));
  }
  auto dataset = features::BuildDataset(history, cohort->ids,
                                        cohort->labels, service.plan_);
  if (!dataset.ok()) return pooled_failure(dataset.status());

  // Slot s views its rows: 0 is the pooled fallback (every row), 1 + e
  // the dedicated model for edition e.
  constexpr size_t kSlots = telemetry::kNumEditions + 1;
  std::array<std::vector<size_t>, kSlots> views;
  views[0].resize(cohort->ids.size());
  std::iota(views[0].begin(), views[0].end(), 0);
  for (size_t i = 0; i < cohort->editions.size(); ++i) {
    views[1 + static_cast<size_t>(cohort->editions[i])].push_back(i);
  }
  std::array<ModelSlot*, kSlots> slots;
  slots[0] = &service.pooled_model_;
  for (size_t s = 1; s < kSlots; ++s) {
    slots[s] = &service.edition_models_[s - 1];
  }

  // Every trainable slot's forest is fit in one task set; an edition
  // that is too small or single-class falls back to the pooled model.
  std::array<ml::RandomForestClassifier, kSlots> forests;
  std::array<double, kSlots> thresholds{};
  std::vector<ml::ForestJob> jobs;
  for (size_t s = 0; s < kSlots; ++s) {
    auto threshold =
        SlotThreshold(views[s], cohort->labels, options.min_cohort_size);
    if (!threshold.ok()) {
      if (s == 0) return pooled_failure(threshold.status());
      continue;
    }
    thresholds[s] = *threshold;
    jobs.push_back({&views[s], options.seed, &forests[s]});
  }
  const Status fitted = ml::RandomForestClassifier::FitForests(
      *dataset, options.forest_params, jobs);
  if (!fitted.ok()) return pooled_failure(fitted);

  // Keep only the compiled forests.
  for (size_t s = 0; s < kSlots; ++s) {
    if (!forests[s].fitted()) continue;  // falls back to pooled
    auto flat = ml::FlatForest::Compile(forests[s]);
    if (!flat.ok()) {
      if (s == 0) return pooled_failure(flat.status());
      continue;
    }
    slots[s]->present = true;
    slots[s]->flat = std::move(flat).value();
    slots[s]->threshold = thresholds[s];
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

LongevityService::Assessment LongevityService::Decide(const ModelSlot& slot,
                                                      Edition edition,
                                                      double p) const {
  const ScoreDecision decision = DecideOnScore(p, slot.threshold);
  return Assessment{
      .predicted_label = decision.predicted_label,
      .positive_probability = p,
      .confident = decision.confident,
      .confidence_threshold = slot.threshold,
      .recommended_pool = !decision.confident ? Pool::kGeneral
                          : decision.predicted_label == 1 ? Pool::kStable
                                                          : Pool::kChurn,
      .model_name = &slot == &pooled_model_
                        ? "pooled"
                        : telemetry::EditionToString(edition)};
}

Result<LongevityService::Assessment> LongevityService::Assess(
    const TelemetryStore& store, telemetry::DatabaseId id) const {
  if (!pooled_model_.present) {
    return Status::FailedPrecondition("service is not trained");
  }
  CLOUDSURV_ASSIGN_OR_RETURN(const telemetry::DatabaseRecord record,
                             store.FindDatabase(id));
  std::vector<double> row(plan_.num_features());
  CLOUDSURV_RETURN_NOT_OK(plan_.ExtractRow(store, record, row));
  const Edition edition = record.initial_edition();
  const ModelSlot& slot = SlotFor(edition);
  return Decide(slot, edition, slot.flat.PredictPositive(row));
}

Result<std::vector<std::optional<LongevityService::Assessment>>>
LongevityService::AssessMany(const TelemetryStore& store,
                             const std::vector<telemetry::DatabaseId>& ids,
                             const ml::FlatForest::BatchOptions& batch) const {
  if (!pooled_model_.present) {
    return Status::FailedPrecondition("service is not trained");
  }
  std::vector<std::optional<Assessment>> out(ids.size());
  const size_t width = plan_.num_features();

  // One extraction resolves every id once and hands back each row's
  // creation edition; a row it cannot extract stays nullopt, as per-id
  // Assess would fail. No pool here: AssessMany runs inside the serving
  // engine's own pool workers, and nested submission into a bounded
  // queue could deadlock. The caller parallelizes across shard batches.
  std::vector<double> matrix(ids.size() * width);
  std::vector<uint8_t> row_ok;
  std::vector<Edition> editions;
  CLOUDSURV_RETURN_NOT_OK(plan_.ExtractBatchPartial(
      store, ids, matrix.data(), &row_ok, /*pool=*/nullptr, &editions));

  // Group the extracted rows by resolved model slot (at most
  // kNumEditions + 1 groups) so each group is scored in one batch.
  struct Group {
    const ModelSlot* slot = nullptr;
    Edition edition = Edition::kBasic;  ///< The first id's; names the slot.
    std::vector<size_t> positions;  ///< Index into ids/out.
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!row_ok[i]) continue;
    const ModelSlot& slot = SlotFor(editions[i]);
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
      group->edition = editions[i];
    }
    group->positions.push_back(i);
  }

  // A group's rows are gathered into one row-major block, which feeds
  // the compiled forest directly; a group of every row in ids order
  // reads the extracted matrix in place.
  std::vector<double> block;
  std::vector<double> probs;
  for (const auto& group : groups) {
    const size_t num_rows = group.positions.size();
    const double* rows = matrix.data();
    if (num_rows != ids.size()) {
      block.resize(num_rows * width);
      for (size_t k = 0; k < num_rows; ++k) {
        std::memcpy(block.data() + k * width,
                    matrix.data() + group.positions[k] * width,
                    width * sizeof(double));
      }
      rows = block.data();
    }
    probs.resize(num_rows);
    CLOUDSURV_RETURN_NOT_OK(group.slot->flat.PredictPositiveBatch(
        rows, num_rows, probs.data(), batch));
    for (size_t k = 0; k < num_rows; ++k) {
      out[group.positions[k]] =
          Decide(*group.slot, group.edition, probs[k]);
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
  auto plan = CompilePlan(service.options_);
  if (!plan.ok()) {
    return Status::InvalidArgument(path + ": service meta: " +
                                   plan.status().message());
  }
  service.plan_ = std::move(plan).value();

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
    if (slot->flat.num_features() != service.plan_.num_features()) {
      return Status::InvalidArgument(
          path + ": model '" + name + "' reads " +
          std::to_string(slot->flat.num_features()) +
          " features, but its feature configuration extracts " +
          std::to_string(service.plan_.num_features()));
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
