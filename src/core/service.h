#ifndef CLOUDSURV_CORE_SERVICE_H_
#define CLOUDSURV_CORE_SERVICE_H_

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "artifact/reader.h"
#include "features/feature_plan.h"
#include "ml/flat_forest.h"
#include "ml/random_forest.h"
#include "telemetry/store.h"

namespace cloudsurv::core {

/// Back-end resource pools for longevity-guided placement (paper
/// section 3.1): a default pool, a churn pool for predicted-short-lived
/// databases (non-critical updates deferred; the database simply picks
/// up new software when its successor is created), and a stable pool
/// for predicted-long-lived databases. Each assessment names one; the
/// placement policies in core/provisioning.h map the same confidence
/// partition onto catalog architectures.
enum class Pool {
  kGeneral = 0,
  kChurn = 1,
  kStable = 2,
};

const char* PoolToString(Pool pool);

/// End-to-end lifespan service — the deployable form of the paper's
/// pipeline. Train() learns one random forest per creation edition from
/// historical telemetry (plus a pooled fallback model) and keeps only
/// its compiled `ml::FlatForest` form; Assess() then scores any
/// database that has completed its observation window and recommends a
/// resource pool, acting only on confident predictions (sections 4,
/// 5.3, 3.1).
class LongevityService {
 public:
  struct Options {
    double observe_days = 2.0;
    double long_threshold_days = 30.0;
    ml::ForestParams forest_params;
    features::FeatureConfig feature_config;
    /// Minimum labeled cohort size to train a per-edition model;
    /// smaller editions fall back to the pooled model.
    size_t min_cohort_size = 200;
    uint64_t seed = 1;

    Options() {
      forest_params.num_trees = 80;
      forest_params.max_depth = 14;
    }
  };

  /// One scored database.
  struct Assessment {
    int predicted_label = 0;            ///< 1 = long-lived.
    double positive_probability = 0.0;
    bool confident = false;
    double confidence_threshold = 0.5;  ///< t = max(q, 1-q) of the model.
    Pool recommended_pool = Pool::kGeneral;
    /// Which model scored it ("Basic", "Standard", "Premium", "pooled").
    std::string model_name;
  };

  /// Trains the per-edition and pooled models on `history`. Fails if
  /// the features do not compile or even the pooled cohort is too
  /// small or single-class.
  static Result<LongevityService> Train(
      const telemetry::TelemetryStore& history, const Options& options =
          Options());

  /// Scores one database of `store` (typically live telemetry) with one
  /// FeaturePlan::ExtractRow and one tree walk. The database must exist
  /// and have survived the observation window; features are
  /// computed only from telemetry up to created_at + observe_days.
  Result<Assessment> Assess(const telemetry::TelemetryStore& store,
                            telemetry::DatabaseId id) const;

  /// Scores many databases of `store` in one pass: one extraction
  /// resolves each id once, and the feature rows are grouped per
  /// resolved model slot and pushed through the compiled
  /// `ml::FlatForest` with `batch` (block size, thread pool).
  /// `out[i]` is nullopt exactly when per-id Assess(ids[i]) would fail
  /// (unknown id, too little telemetry); every produced Assessment is
  /// bit-identical to the per-id call.
  Result<std::vector<std::optional<Assessment>>> AssessMany(
      const telemetry::TelemetryStore& store,
      const std::vector<telemetry::DatabaseId>& ids,
      const ml::FlatForest::BatchOptions& batch = {}) const;

  /// Does nothing: Train() and LoadArtifact() already hold every model
  /// in its compiled form. Kept only because the pipeline benchmark's
  /// harness still calls it; delete with that call.
  Status CompileForInference() { return Status::OK(); }

  /// True iff a dedicated model exists for `edition` (otherwise the
  /// pooled model serves it).
  bool HasEditionModel(telemetry::Edition edition) const;

  const Options& options() const { return options_; }

  /// Persists the full service — observation settings, feature
  /// configuration, per-slot thresholds and the compiled
  /// `ml::FlatForest` arrays — as one CSRV binary artifact at `path`
  /// (atomic tmp-file + rename).
  Status SaveArtifact(const std::string& path) const;

  /// Restores a service from a SaveArtifact() file. The compiled
  /// forests are bound directly to the (typically mmap'ed) file bytes —
  /// zero per-array copies. Corrupt, truncated or version-mismatched
  /// files, a stored feature configuration FeaturePlan::Compile rejects,
  /// and forests whose width disagrees with it are rejected with a
  /// precise error.
  static Result<LongevityService> LoadArtifact(
      const std::string& path,
      const artifact::ArtifactReader::Options& reader_options);
  static Result<LongevityService> LoadArtifact(const std::string& path) {
    return LoadArtifact(path, artifact::ArtifactReader::Options());
  }

 private:
  LongevityService() = default;

  struct ModelSlot {
    bool present = false;
    ml::FlatForest flat;
    double threshold = 0.5;  ///< max(q, 1-q) from the training cohort.
  };

  const ModelSlot& SlotFor(telemetry::Edition edition) const;

  /// The section 5.3 Assessment of score `p` from `slot` (serving `edition`).
  Assessment Decide(const ModelSlot& slot, telemetry::Edition edition,
                    double p) const;

  Options options_;
  /// feature_config observed for observe_days, compiled once.
  features::FeaturePlan plan_;
  std::array<ModelSlot, telemetry::kNumEditions> edition_models_;
  ModelSlot pooled_model_;
};

}  // namespace cloudsurv::core

#endif  // CLOUDSURV_CORE_SERVICE_H_
