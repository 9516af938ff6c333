#ifndef CLOUDSURV_CORE_PREDICTION_H_
#define CLOUDSURV_CORE_PREDICTION_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cohort.h"
#include "features/features.h"
#include "ml/baseline.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "survival/logrank.h"
#include "survival/survival_data.h"
#include "telemetry/store.h"

namespace cloudsurv::core {

/// Configuration of one lifespan-prediction experiment, mirroring the
/// paper's protocol (section 5.1): observe x days, predict whether the
/// database lives more than y days; 80/20 split; grid search with
/// 5-fold CV over the training set; repeat 5 times and average.
struct ExperimentConfig {
  double observe_days = 2.0;          ///< x.
  double long_threshold_days = 30.0;  ///< y.
  double test_fraction = 0.2;
  int num_repetitions = 5;
  int cv_folds = 5;
  /// When true, hyper-parameters are tuned by grid search on the first
  /// repetition's training set and reused for the remaining repetitions
  /// (a documented economy over per-run tuning; the winning cell is
  /// stable in practice).
  bool tune_with_grid_search = true;
  std::vector<ml::ForestParams> grid = ml::DefaultForestGrid();
  /// Used directly when tune_with_grid_search is false.
  ml::ForestParams default_params;
  features::FeatureConfig feature_config;
  uint64_t seed = 42;
  /// Worker threads for grid-search tuning AND per-repetition forest
  /// fits (0 = hardware concurrency). Results are seed-deterministic
  /// for any value.
  int num_threads = 0;
};

/// Partition of predictions by the paper's confidence rule
/// (section 5.3).
enum class PredictionBucket {
  kAll,
  kConfident,
  kUncertain,
};

/// The paper's decision on one score p = P(long) (section 5.3): label 1
/// (long-lived) iff p > 0.5, confident (acted on) iff p >= t or
/// p <= 1 - t, for the cohort threshold t = max(q, 1 - q).
struct ScoreDecision {
  int predicted_label = 0;
  bool confident = false;
};
inline ScoreDecision DecideOnScore(double p, double t) {
  return {p > 0.5 ? 1 : 0, p >= t || p <= 1.0 - t};
}

/// One scored test-set example from one repetition.
struct PredictionOutcome {
  telemetry::DatabaseId id = 0;
  int true_label = 0;
  int predicted_label = 0;
  double positive_probability = 0.0;
  bool confident = false;
  /// Survival fields for KM curves of the classified groups.
  double duration_days = 0.0;
  bool observed = false;  ///< True = dropped inside the window.
};

/// Scores and artifacts of one repetition.
struct RunResult {
  ml::ClassificationScores forest_scores;
  ml::ClassificationScores baseline_scores;
  ml::ClassificationScores confident_scores;   ///< support 0 if none.
  ml::ClassificationScores uncertain_scores;   ///< support 0 if none.
  double confidence_threshold = 0.5;  ///< t = max(q, 1 - q).
  double confident_fraction = 0.0;
  std::vector<PredictionOutcome> outcomes;
  /// Baseline predictions, parallel to `outcomes`.
  std::vector<int> baseline_predictions;
  std::vector<double> feature_importances;
};

/// Aggregated result over all repetitions for one (region, edition)
/// subgroup.
struct SubgroupExperimentResult {
  std::string region_name;
  std::string subgroup_name;
  size_t cohort_size = 0;
  size_t num_unknown_excluded = 0;
  double positive_rate = 0.0;  ///< Long-lived fraction of the cohort.
  ml::ForestParams tuned_params;
  double tuning_cv_score = 0.0;
  ml::ClassificationScores forest_avg;
  ml::ClassificationScores baseline_avg;
  ml::ClassificationScores confident_avg;
  ml::ClassificationScores uncertain_avg;
  double confident_fraction_avg = 0.0;
  std::vector<RunResult> runs;
  std::vector<double> feature_importances_avg;
  std::vector<std::string> feature_names;
};

/// Runs the full protocol for one subgroup (optionally restricted to a
/// creation edition). Requires a cohort with both classes present.
/// Feature extraction goes through a compiled FeaturePlan (fanned over
/// a thread pool for large cohorts) — bit-identical to per-row
/// extraction.
Result<SubgroupExperimentResult> RunPredictionExperiment(
    const telemetry::TelemetryStore& store,
    std::optional<telemetry::Edition> edition,
    const ExperimentConfig& config);

/// The protocol from the dataset boundary down: split / tune / repeat
/// on an already-extracted dataset whose rows parallel `cohort`.
/// Callers that evaluate many configurations of the same cohort (e.g.
/// the feature-ablation bench via ml::Dataset::DropFeatures) extract
/// once and reuse the matrix across calls. `region_name` and `edition`
/// only label the result.
Result<SubgroupExperimentResult> RunPredictionExperimentOnDataset(
    const ml::Dataset& dataset, const PredictionCohort& cohort,
    const std::string& region_name,
    std::optional<telemetry::Edition> edition,
    const ExperimentConfig& config);

/// Splits one run's outcomes into predicted-short and predicted-long
/// survival samples, optionally restricted to a confidence bucket.
/// Either output may be empty.
struct ClassifiedSurvivalGroups {
  std::vector<survival::Observation> predicted_short;
  std::vector<survival::Observation> predicted_long;
};
ClassifiedSurvivalGroups SplitOutcomesByPrediction(
    const std::vector<PredictionOutcome>& outcomes, PredictionBucket bucket);

/// Log-rank test between the predicted-short and predicted-long groups
/// of one run. Errors if either group is empty.
Result<survival::LogRankResult> LogRankOfClassifiedGroups(
    const std::vector<PredictionOutcome>& outcomes, PredictionBucket bucket);

/// Log-rank test of the *baseline's* classified grouping (the paper
/// reports these are not significant).
Result<survival::LogRankResult> LogRankOfBaselineGroups(
    const std::vector<PredictionOutcome>& outcomes,
    const std::vector<int>& baseline_predictions);

/// Ranks features by averaged gini importance, descending.
/// Returns (feature name, importance) pairs.
std::vector<std::pair<std::string, double>> RankFeatureImportances(
    const SubgroupExperimentResult& result);

/// Sums importances by feature family prefix and ranks families,
/// reproducing the section 5.4 analysis.
std::vector<std::pair<std::string, double>> RankFeatureFamilies(
    const SubgroupExperimentResult& result);

}  // namespace cloudsurv::core

#endif  // CLOUDSURV_CORE_PREDICTION_H_
