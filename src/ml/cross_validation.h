#ifndef CLOUDSURV_ML_CROSS_VALIDATION_H_
#define CLOUDSURV_ML_CROSS_VALIDATION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ml/dataset.h"
#include "ml/random_forest.h"

namespace cloudsurv::ml {

/// Row-index split of one dataset into train and test parts.
struct TrainTestIndices {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

/// Random shuffled split with `test_fraction` of rows in the test part.
/// When `stratified`, class proportions are preserved in both parts
/// (per-class shuffles), matching scikit-learn's default protocol in the
/// paper's experiments.
Result<TrainTestIndices> TrainTestSplit(const Dataset& data,
                                        double test_fraction, uint64_t seed,
                                        bool stratified = true);

/// One train/validation fold.
struct Fold {
  std::vector<size_t> train;
  std::vector<size_t> validation;
};

/// K-fold partition of row indices (shuffled). With `stratified`, each
/// fold keeps approximate class balance.
Result<std::vector<Fold>> KFoldSplit(const Dataset& data, int k,
                                     uint64_t seed, bool stratified = true);

/// Mean validation accuracy of a forest configuration over k folds.
/// Folds are trained on index views of `data` (no subset copies); each
/// fold's forest is compiled to a `FlatForest` that scores the validation
/// view and labels a row 1 iff P(long) > 0.5, so `data` must be binary
/// (any other class count is InvalidArgument). `num_threads` > 1 runs
/// the folds from one task queue on that many workers; per-fold seeds
/// are pre-derived, so the result is bit-identical for any thread count
/// (inner forest fits run single-threaded when more than one worker
/// runs).
Result<double> CrossValidateForest(const Dataset& data,
                                   const ForestParams& params, int k,
                                   uint64_t seed, int num_threads = 1);

/// Exhaustive grid search over forest configurations by k-fold CV
/// accuracy (the paper's protocol: grid search with 5-fold CV over the
/// training set). Returns the winning configuration and its score.
struct GridSearchResult {
  ForestParams best_params;
  double best_score = 0.0;
  /// (params, score) for every evaluated cell, in evaluation order.
  std::vector<std::pair<ForestParams, double>> all_scores;
};

/// `num_threads` > 1 runs the (grid-point × fold) work items from one
/// task queue on that many workers. Every item's seed is derived up
/// front from (seed, grid index, fold index) alone, per-item results are
/// aggregated in a fixed order, and a failure reports the first failing
/// item in (grid index, fold index) order, so scores, best_params and
/// errors are the same for any thread count.
Result<GridSearchResult> GridSearchForest(
    const Dataset& data, const std::vector<ForestParams>& grid, int k,
    uint64_t seed, int num_threads = 1);

/// The compact default grid used by the paper-reproduction pipeline.
std::vector<ForestParams> DefaultForestGrid();

}  // namespace cloudsurv::ml

#endif  // CLOUDSURV_ML_CROSS_VALIDATION_H_
