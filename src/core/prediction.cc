#include "core/prediction.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>

#include "common/thread_pool.h"
#include "features/feature_plan.h"
#include "ml/flat_forest.h"

namespace cloudsurv::core {

namespace {

using ml::ClassificationScores;

// Scores a subset of outcomes selected by `keep`; returns zeroed scores
// (support 0) when the subset is empty.
ClassificationScores ScoreSubset(const std::vector<PredictionOutcome>& all,
                                 const std::vector<bool>& keep) {
  std::vector<int> y_true, y_pred;
  for (size_t i = 0; i < all.size(); ++i) {
    if (!keep[i]) continue;
    y_true.push_back(all[i].true_label);
    y_pred.push_back(all[i].predicted_label);
  }
  if (y_true.empty()) return ClassificationScores{};
  auto scores = ml::ComputeScores(y_true, y_pred);
  return scores.ok() ? *scores : ClassificationScores{};
}

}  // namespace

Result<SubgroupExperimentResult> RunPredictionExperiment(
    const telemetry::TelemetryStore& store,
    std::optional<telemetry::Edition> edition,
    const ExperimentConfig& config) {
  if (config.num_repetitions <= 0) {
    return Status::InvalidArgument("num_repetitions must be positive");
  }
  features::FeatureConfig feature_config = config.feature_config;
  feature_config.observation_days = config.observe_days;

  CLOUDSURV_ASSIGN_OR_RETURN(
      PredictionCohort cohort,
      BuildPredictionCohort(store, config.observe_days,
                            config.long_threshold_days, edition));
  if (cohort.ids.size() < 50) {
    return Status::FailedPrecondition(
        "prediction cohort too small (" + std::to_string(cohort.ids.size()) +
        " databases); simulate a larger region");
  }
  CLOUDSURV_ASSIGN_OR_RETURN(features::FeaturePlan plan,
                             features::FeaturePlan::Compile(feature_config));
  // Fan the extraction sweep out for cohorts large enough to amortize
  // the pool; small cohorts extract serially on this thread.
  const int pool_threads =
      config.num_threads > 0
          ? config.num_threads
          : static_cast<int>(
                std::max(1u, std::thread::hardware_concurrency()));
  std::optional<ThreadPool> pool;
  if (cohort.ids.size() >= 2048 && pool_threads > 1) {
    pool.emplace(static_cast<size_t>(pool_threads),
                 /*queue_capacity=*/static_cast<size_t>(pool_threads) * 8);
  }
  CLOUDSURV_ASSIGN_OR_RETURN(
      ml::Dataset dataset,
      features::BuildDataset(store, cohort.ids, cohort.labels, plan,
                             /*num_classes=*/2,
                             pool.has_value() ? &*pool : nullptr));
  return RunPredictionExperimentOnDataset(dataset, cohort,
                                          store.region_name(), edition,
                                          config);
}

Result<SubgroupExperimentResult> RunPredictionExperimentOnDataset(
    const ml::Dataset& dataset, const PredictionCohort& cohort,
    const std::string& region_name,
    std::optional<telemetry::Edition> edition,
    const ExperimentConfig& config) {
  if (config.num_repetitions <= 0) {
    return Status::InvalidArgument("num_repetitions must be positive");
  }
  if (dataset.num_rows() != cohort.ids.size()) {
    return Status::InvalidArgument("dataset and cohort must be parallel");
  }
  const double positive_rate = dataset.ClassFraction(1);
  if (positive_rate == 0.0 || positive_rate == 1.0) {
    return Status::FailedPrecondition(
        "prediction cohort contains a single class");
  }

  SubgroupExperimentResult result;
  result.region_name = region_name;
  result.subgroup_name =
      edition.has_value() ? telemetry::EditionToString(*edition) : "All";
  result.cohort_size = cohort.ids.size();
  result.num_unknown_excluded = cohort.num_unknown_excluded;
  result.positive_rate = positive_rate;
  result.feature_names = dataset.feature_names();

  // Hyper-parameter tuning on the first repetition's training split.
  // The experiment-level thread knob reaches every forest trained
  // here: tuning cells and per-repetition fits alike.
  ml::ForestParams params = config.default_params;
  params.num_threads = config.num_threads;
  if (config.tune_with_grid_search) {
    CLOUDSURV_ASSIGN_OR_RETURN(
        ml::TrainTestIndices tune_split,
        ml::TrainTestSplit(dataset, config.test_fraction, config.seed));
    CLOUDSURV_ASSIGN_OR_RETURN(ml::Dataset tune_train,
                               dataset.Subset(tune_split.train));
    std::vector<ml::ForestParams> grid = config.grid;
    for (ml::ForestParams& cell : grid) {
      cell.num_threads = config.num_threads;
    }
    const int pool_threads =
        config.num_threads > 0
            ? config.num_threads
            : static_cast<int>(
                  std::max(1u, std::thread::hardware_concurrency()));
    CLOUDSURV_ASSIGN_OR_RETURN(
        ml::GridSearchResult grid_result,
        ml::GridSearchForest(tune_train, grid, config.cv_folds,
                             config.seed, pool_threads));
    params = grid_result.best_params;
    result.tuning_cv_score = grid_result.best_score;
  }
  result.tuned_params = params;

  std::vector<ClassificationScores> forest_all, baseline_all, confident_all,
      uncertain_all;
  double confident_fraction_sum = 0.0;
  std::vector<double> importances_sum;

  for (int rep = 0; rep < config.num_repetitions; ++rep) {
    const uint64_t rep_seed = config.seed + 1000003ULL * (rep + 1);
    CLOUDSURV_ASSIGN_OR_RETURN(
        ml::TrainTestIndices split,
        ml::TrainTestSplit(dataset, config.test_fraction, rep_seed));
    CLOUDSURV_ASSIGN_OR_RETURN(ml::Dataset train, dataset.Subset(split.train));
    CLOUDSURV_ASSIGN_OR_RETURN(ml::Dataset test, dataset.Subset(split.test));

    ml::RandomForestClassifier forest;
    CLOUDSURV_RETURN_NOT_OK(forest.Fit(train, params, rep_seed));
    // Scoring the held-out fold goes through the compiled flat layout —
    // bit-identical to forest.PredictPositiveProba(test), just blocked.
    CLOUDSURV_ASSIGN_OR_RETURN(ml::FlatForest flat,
                               ml::FlatForest::Compile(forest));
    CLOUDSURV_ASSIGN_OR_RETURN(std::vector<double> probs,
                               flat.PredictPositiveProbaBatch(test));

    // Confidence threshold from the training class distribution
    // (section 5.3): t = max(q, 1 - q).
    const double q = train.ClassFraction(1);
    const double threshold = std::max(q, 1.0 - q);

    RunResult run;
    run.confidence_threshold = threshold;
    run.feature_importances = forest.feature_importances();
    run.outcomes.reserve(test.num_rows());
    size_t num_confident = 0;
    for (size_t i = 0; i < test.num_rows(); ++i) {
      const size_t cohort_index = split.test[i];
      PredictionOutcome outcome;
      outcome.id = cohort.ids[cohort_index];
      outcome.true_label = test.label(i);
      outcome.positive_probability = probs[i];
      const ScoreDecision decision = DecideOnScore(probs[i], threshold);
      outcome.predicted_label = decision.predicted_label;
      outcome.confident = decision.confident;
      outcome.duration_days = cohort.durations[cohort_index];
      outcome.observed = cohort.observed[cohort_index];
      num_confident += outcome.confident ? 1 : 0;
      run.outcomes.push_back(outcome);
    }
    run.confident_fraction =
        static_cast<double>(num_confident) /
        static_cast<double>(run.outcomes.size());

    // Baseline.
    ml::WeightedRandomClassifier baseline;
    CLOUDSURV_RETURN_NOT_OK(baseline.Fit(train));
    CLOUDSURV_ASSIGN_OR_RETURN(run.baseline_predictions,
                               baseline.PredictBatch(test, rep_seed ^ 0xBA5E));

    // Scores.
    std::vector<bool> all_mask(run.outcomes.size(), true);
    std::vector<bool> confident_mask(run.outcomes.size());
    std::vector<bool> uncertain_mask(run.outcomes.size());
    for (size_t i = 0; i < run.outcomes.size(); ++i) {
      confident_mask[i] = run.outcomes[i].confident;
      uncertain_mask[i] = !run.outcomes[i].confident;
    }
    run.forest_scores = ScoreSubset(run.outcomes, all_mask);
    run.confident_scores = ScoreSubset(run.outcomes, confident_mask);
    run.uncertain_scores = ScoreSubset(run.outcomes, uncertain_mask);
    {
      std::vector<int> y_true;
      y_true.reserve(run.outcomes.size());
      for (const auto& o : run.outcomes) y_true.push_back(o.true_label);
      auto scores = ml::ComputeScores(y_true, run.baseline_predictions);
      run.baseline_scores = scores.ok() ? *scores : ClassificationScores{};
    }

    forest_all.push_back(run.forest_scores);
    baseline_all.push_back(run.baseline_scores);
    if (run.confident_scores.support > 0) {
      confident_all.push_back(run.confident_scores);
    }
    if (run.uncertain_scores.support > 0) {
      uncertain_all.push_back(run.uncertain_scores);
    }
    confident_fraction_sum += run.confident_fraction;
    if (importances_sum.empty()) {
      importances_sum = run.feature_importances;
    } else {
      for (size_t f = 0; f < importances_sum.size(); ++f) {
        importances_sum[f] += run.feature_importances[f];
      }
    }
    result.runs.push_back(std::move(run));
  }

  result.forest_avg = ml::AverageScores(forest_all);
  result.baseline_avg = ml::AverageScores(baseline_all);
  result.confident_avg = ml::AverageScores(confident_all);
  result.uncertain_avg = ml::AverageScores(uncertain_all);
  result.confident_fraction_avg =
      confident_fraction_sum / static_cast<double>(config.num_repetitions);
  result.feature_importances_avg = importances_sum;
  for (double& v : result.feature_importances_avg) {
    v /= static_cast<double>(config.num_repetitions);
  }
  return result;
}

ClassifiedSurvivalGroups SplitOutcomesByPrediction(
    const std::vector<PredictionOutcome>& outcomes,
    PredictionBucket bucket) {
  ClassifiedSurvivalGroups groups;
  for (const PredictionOutcome& o : outcomes) {
    if (bucket == PredictionBucket::kConfident && !o.confident) continue;
    if (bucket == PredictionBucket::kUncertain && o.confident) continue;
    survival::Observation obs{o.duration_days, o.observed};
    if (o.predicted_label == 1) {
      groups.predicted_long.push_back(obs);
    } else {
      groups.predicted_short.push_back(obs);
    }
  }
  return groups;
}

Result<survival::LogRankResult> LogRankOfClassifiedGroups(
    const std::vector<PredictionOutcome>& outcomes,
    PredictionBucket bucket) {
  ClassifiedSurvivalGroups groups =
      SplitOutcomesByPrediction(outcomes, bucket);
  CLOUDSURV_ASSIGN_OR_RETURN(
      survival::SurvivalData short_data,
      survival::SurvivalData::Make(std::move(groups.predicted_short)));
  CLOUDSURV_ASSIGN_OR_RETURN(
      survival::SurvivalData long_data,
      survival::SurvivalData::Make(std::move(groups.predicted_long)));
  if (short_data.empty() || long_data.empty()) {
    return Status::FailedPrecondition(
        "one classified group is empty; log-rank undefined");
  }
  return survival::LogRankTest(short_data, long_data);
}

Result<survival::LogRankResult> LogRankOfBaselineGroups(
    const std::vector<PredictionOutcome>& outcomes,
    const std::vector<int>& baseline_predictions) {
  if (outcomes.size() != baseline_predictions.size()) {
    return Status::InvalidArgument(
        "outcomes and baseline predictions must be parallel");
  }
  std::vector<survival::Observation> short_obs, long_obs;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    survival::Observation obs{outcomes[i].duration_days,
                              outcomes[i].observed};
    if (baseline_predictions[i] == 1) {
      long_obs.push_back(obs);
    } else {
      short_obs.push_back(obs);
    }
  }
  CLOUDSURV_ASSIGN_OR_RETURN(survival::SurvivalData short_data,
                             survival::SurvivalData::Make(std::move(short_obs)));
  CLOUDSURV_ASSIGN_OR_RETURN(survival::SurvivalData long_data,
                             survival::SurvivalData::Make(std::move(long_obs)));
  if (short_data.empty() || long_data.empty()) {
    return Status::FailedPrecondition(
        "one baseline group is empty; log-rank undefined");
  }
  return survival::LogRankTest(short_data, long_data);
}

std::vector<std::pair<std::string, double>> RankFeatureImportances(
    const SubgroupExperimentResult& result) {
  std::vector<std::pair<std::string, double>> ranked;
  for (size_t f = 0; f < result.feature_names.size(); ++f) {
    ranked.emplace_back(result.feature_names[f],
                        result.feature_importances_avg[f]);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return ranked;
}

namespace {

std::string FamilyOfFeature(const std::string& name) {
  if (name.rfind("create_", 0) == 0) return "creation_time";
  if (name.rfind("server_name_", 0) == 0 || name.rfind("db_name_", 0) == 0) {
    return "names";
  }
  if (name.rfind("size_", 0) == 0) return "size";
  if (name.rfind("slo_", 0) == 0) return "slo";
  if (name.rfind("sub_type_", 0) == 0) return "subscription_type";
  if (name.rfind("hist_", 0) == 0) return "subscription_history";
  return "other";
}

}  // namespace

std::vector<std::pair<std::string, double>> RankFeatureFamilies(
    const SubgroupExperimentResult& result) {
  std::vector<std::pair<std::string, double>> families;
  auto add = [&families](const std::string& family, double value) {
    for (auto& [name, total] : families) {
      if (name == family) {
        total += value;
        return;
      }
    }
    families.emplace_back(family, value);
  };
  for (size_t f = 0; f < result.feature_names.size(); ++f) {
    add(FamilyOfFeature(result.feature_names[f]),
        result.feature_importances_avg[f]);
  }
  std::sort(families.begin(), families.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return families;
}

}  // namespace cloudsurv::core
