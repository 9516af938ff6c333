#include "ml/cross_validation.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "ml/flat_forest.h"
#include "ml/metrics.h"
#include "obs/metrics.h"

namespace cloudsurv::ml {

namespace {

// Shuffled row indices grouped by class label.
std::vector<std::vector<size_t>> ShuffledClassBuckets(const Dataset& data,
                                                      Rng& rng,
                                                      bool stratified) {
  std::vector<std::vector<size_t>> buckets;
  if (stratified) {
    buckets.resize(static_cast<size_t>(data.num_classes()));
    for (size_t i = 0; i < data.num_rows(); ++i) {
      buckets[static_cast<size_t>(data.label(i))].push_back(i);
    }
  } else {
    buckets.resize(1);
    buckets[0].resize(data.num_rows());
    std::iota(buckets[0].begin(), buckets[0].end(), 0);
  }
  for (auto& b : buckets) {
    std::shuffle(b.begin(), b.end(), rng.engine());
  }
  return buckets;
}

}  // namespace

Result<TrainTestIndices> TrainTestSplit(const Dataset& data,
                                        double test_fraction, uint64_t seed,
                                        bool stratified) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot split empty dataset");
  }
  if (!(test_fraction > 0.0 && test_fraction < 1.0)) {
    return Status::InvalidArgument("test_fraction must be in (0, 1)");
  }
  Rng rng(seed);
  TrainTestIndices out;
  for (auto& bucket : ShuffledClassBuckets(data, rng, stratified)) {
    const size_t n_test = static_cast<size_t>(
        static_cast<double>(bucket.size()) * test_fraction + 0.5);
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (i < n_test) {
        out.test.push_back(bucket[i]);
      } else {
        out.train.push_back(bucket[i]);
      }
    }
  }
  if (out.train.empty() || out.test.empty()) {
    return Status::InvalidArgument(
        "split produced an empty train or test part");
  }
  std::sort(out.train.begin(), out.train.end());
  std::sort(out.test.begin(), out.test.end());
  return out;
}

Result<std::vector<Fold>> KFoldSplit(const Dataset& data, int k,
                                     uint64_t seed, bool stratified) {
  if (k < 2) {
    return Status::InvalidArgument("k-fold requires k >= 2");
  }
  if (data.num_rows() < static_cast<size_t>(k)) {
    return Status::InvalidArgument("fewer rows than folds");
  }
  Rng rng(seed);
  std::vector<std::vector<size_t>> fold_members(static_cast<size_t>(k));
  size_t cursor = 0;
  for (auto& bucket : ShuffledClassBuckets(data, rng, stratified)) {
    for (size_t i = 0; i < bucket.size(); ++i) {
      fold_members[cursor % static_cast<size_t>(k)].push_back(bucket[i]);
      ++cursor;
    }
  }
  std::vector<Fold> folds(static_cast<size_t>(k));
  for (size_t f = 0; f < folds.size(); ++f) {
    folds[f].validation = fold_members[f];
    std::sort(folds[f].validation.begin(), folds[f].validation.end());
    for (size_t g = 0; g < folds.size(); ++g) {
      if (g == f) continue;
      folds[f].train.insert(folds[f].train.end(), fold_members[g].begin(),
                            fold_members[g].end());
    }
    std::sort(folds[f].train.begin(), folds[f].train.end());
    if (folds[f].train.empty() || folds[f].validation.empty()) {
      return Status::InvalidArgument("k-fold produced an empty fold");
    }
  }
  return folds;
}

namespace {

// Duration of one (grid-point × fold) train+evaluate item.
obs::Histogram* CvItemHistogram() {
  static obs::Histogram* const cv_item_us =
      obs::Registry::Default().GetHistogram(
          "cloudsurv_ml_cv_item_us",
          "One (grid point x fold) train + validate item");
  return cv_item_us;
}

// Summed item time of one tuning point (CPU time, not wall clock —
// items of a point run concurrently under num_threads > 1).
obs::Histogram* GridPointHistogram() {
  static obs::Histogram* const grid_point_us =
      obs::Registry::Default().GetHistogram(
          "cloudsurv_ml_grid_point_us",
          "Summed fold-item time of one grid-search point (CPU time)");
  return grid_point_us;
}

// One (grid-point × fold) work item: train on the fold's train view,
// compile the forest and score the validation view through it, labelling
// a row 1 iff P(long) > 0.5 — the rule every reported prediction uses.
// Views throughout — no Subset copies. `duration_us` receives the
// item's measured time.
Result<double> EvaluateFold(const Dataset& data, const Fold& fold,
                            const ForestParams& params, uint64_t fold_seed,
                            double& duration_us) {
  obs::ScopedTimer timer(CvItemHistogram());
  RandomForestClassifier forest;
  CLOUDSURV_RETURN_NOT_OK(
      forest.FitOnRows(data, fold.train, params, fold_seed));
  CLOUDSURV_ASSIGN_OR_RETURN(FlatForest flat, FlatForest::Compile(forest));
  CLOUDSURV_ASSIGN_OR_RETURN(
      std::vector<double> probs,
      flat.PredictPositiveProbaBatch(data, fold.validation));
  std::vector<int> truth;
  std::vector<int> preds;
  truth.reserve(fold.validation.size());
  preds.reserve(probs.size());
  for (size_t r : fold.validation) truth.push_back(data.label(r));
  for (double p : probs) preds.push_back(p > 0.5 ? 1 : 0);
  CLOUDSURV_ASSIGN_OR_RETURN(ClassificationScores scores,
                             ComputeScores(truth, preds));
  duration_us = timer.Stop();
  return scores.accuracy;
}

// Runs every (fold set × fold) item, flattened in (i, j) order, from one
// task queue on up to `num_threads` workers and fills accuracies[i][j].
// Item seeds come in pre-derived, and the queue returns the failure of
// the lowest flattened index, so scores and failures are the same for
// any thread count. With more than one worker, inner forest fits are
// forced single-threaded (forests are seed-deterministic, so this
// cannot change any score — it only stops the thread count from
// multiplying).
Status RunFoldItems(const Dataset& data,
                    const std::vector<ForestParams>& configs,
                    const std::vector<std::vector<Fold>>& fold_sets,
                    const std::vector<std::vector<uint64_t>>& item_seeds,
                    int num_threads,
                    std::vector<std::vector<double>>& accuracies) {
  // Checked before any fold is fitted: a fold's compiled forest scores
  // P(long), and FlatForest::Compile would refuse any other class count
  // only after the fit.
  if (data.num_classes() != 2) {
    return Status::InvalidArgument(
        "cross-validation scores P(long) and needs a two-class dataset");
  }
  struct Item {
    size_t i;
    size_t j;
  };
  std::vector<Item> items;
  // Measured item durations, one slot per item (workers write disjoint
  // elements), summed per tuning point into the grid-point histogram.
  std::vector<std::vector<double>> item_durations_us(configs.size());
  accuracies.assign(configs.size(), {});
  for (size_t i = 0; i < configs.size(); ++i) {
    accuracies[i].assign(fold_sets[i].size(), 0.0);
    item_durations_us[i].assign(fold_sets[i].size(), 0.0);
    for (size_t j = 0; j < fold_sets[i].size(); ++j) items.push_back({i, j});
  }
  const unsigned workers = static_cast<unsigned>(std::max(1, num_threads));
  std::vector<ForestParams> item_params = configs;
  if (workers > 1) {
    for (ForestParams& p : item_params) p.num_threads = 1;
  }
  CLOUDSURV_RETURN_NOT_OK(
      RunTasks(items.size(), workers, [&](size_t task) -> Status {
        const auto [i, j] = items[task];
        CLOUDSURV_ASSIGN_OR_RETURN(
            accuracies[i][j],
            EvaluateFold(data, fold_sets[i][j], item_params[i],
                         item_seeds[i][j], item_durations_us[i][j]));
        return Status::OK();
      }));
  for (const std::vector<double>& point : item_durations_us) {
    double total_us = 0.0;
    for (double d : point) total_us += d;
    GridPointHistogram()->Observe(total_us);
  }
  return Status::OK();
}

}  // namespace

Result<double> CrossValidateForest(const Dataset& data,
                                   const ForestParams& params, int k,
                                   uint64_t seed, int num_threads) {
  std::vector<std::vector<Fold>> fold_sets(1);
  CLOUDSURV_ASSIGN_OR_RETURN(fold_sets[0], KFoldSplit(data, k, seed));
  std::vector<std::vector<uint64_t>> item_seeds(1);
  for (size_t j = 0; j < fold_sets[0].size(); ++j) {
    item_seeds[0].push_back(seed + 1 + j);
  }
  std::vector<std::vector<double>> accuracies;
  CLOUDSURV_RETURN_NOT_OK(RunFoldItems(data, {params}, fold_sets,
                                       item_seeds, num_threads,
                                       accuracies));
  double total_accuracy = 0.0;
  for (double a : accuracies[0]) total_accuracy += a;
  return total_accuracy / static_cast<double>(accuracies[0].size());
}

Result<GridSearchResult> GridSearchForest(
    const Dataset& data, const std::vector<ForestParams>& grid, int k,
    uint64_t seed, int num_threads) {
  if (grid.empty()) {
    return Status::InvalidArgument("grid search needs a non-empty grid");
  }
  // Pre-derive every fold set and item seed from (seed, i, j) alone —
  // identical to evaluating the grid sequentially.
  std::vector<std::vector<Fold>> fold_sets(grid.size());
  std::vector<std::vector<uint64_t>> item_seeds(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    const uint64_t cell_seed = seed + i * 7919;
    CLOUDSURV_ASSIGN_OR_RETURN(fold_sets[i],
                               KFoldSplit(data, k, cell_seed));
    for (size_t j = 0; j < fold_sets[i].size(); ++j) {
      item_seeds[i].push_back(cell_seed + 1 + j);
    }
  }
  std::vector<std::vector<double>> accuracies;
  CLOUDSURV_RETURN_NOT_OK(RunFoldItems(data, grid, fold_sets, item_seeds,
                                       num_threads, accuracies));

  GridSearchResult result;
  result.best_score = -1.0;
  for (size_t i = 0; i < grid.size(); ++i) {
    double total = 0.0;
    for (double a : accuracies[i]) total += a;
    const double score = total / static_cast<double>(accuracies[i].size());
    result.all_scores.emplace_back(grid[i], score);
    if (score > result.best_score) {
      result.best_score = score;
      result.best_params = grid[i];
    }
  }
  return result;
}

std::vector<ForestParams> DefaultForestGrid() {
  std::vector<ForestParams> grid;
  for (int trees : {60}) {
    for (int depth : {8, 12, 16}) {
      for (size_t min_leaf : {size_t{1}, size_t{5}}) {
        ForestParams p;
        p.num_trees = trees;
        p.max_depth = depth;
        p.min_samples_leaf = min_leaf;
        p.max_features = MaxFeaturesRule::kSqrt;
        grid.push_back(p);
      }
    }
  }
  return grid;
}

}  // namespace cloudsurv::ml
