#ifndef CLOUDSURV_ML_RANDOM_FOREST_H_
#define CLOUDSURV_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"

namespace cloudsurv::ml {

/// How many features each node examines.
enum class MaxFeaturesRule {
  kSqrt,   ///< ceil(sqrt(d)) — the standard forest default.
  kLog2,   ///< ceil(log2(d)).
  kAll,    ///< All features (bagged trees, no feature randomness).
};

/// Forest hyper-parameters; the grid search in core/ tunes a subset.
struct ForestParams {
  int num_trees = 100;
  int max_depth = 16;
  size_t min_samples_split = 2;
  size_t min_samples_leaf = 1;
  MaxFeaturesRule max_features = MaxFeaturesRule::kSqrt;
  bool bootstrap = true;  ///< Sample n rows with replacement per tree.
  int num_threads = 0;    ///< 0 = hardware concurrency.
  /// Node-split search passed to every tree. With kHistogram the forest
  /// bins the training rows once and all trees share the codes.
  SplitAlgorithm split_algorithm = SplitAlgorithm::kHistogram;
  /// Optional per-class weights passed to every tree (empty = all 1.0).
  /// Use {1/q0, 1/q1}-style weights to trade precision for recall on
  /// imbalanced subgroups (the paper's Premium edition).
  std::vector<double> class_weights;

  std::string ToString() const;
};

class RandomForestClassifier;

/// One forest of a RandomForestClassifier::FitForests task set: fit
/// `*forest` on the view `data[*rows]` with `seed`.
struct ForestJob {
  const std::vector<size_t>* rows = nullptr;
  uint64_t seed = 0;
  RandomForestClassifier* forest = nullptr;
};

/// Random forest classifier (Breiman 2001, the paper's model of choice).
/// An ensemble of CART trees, each fit on a bootstrap sample with
/// per-node random feature subsets. Class probabilities are the average
/// of per-tree leaf distributions — exactly the quantity the paper uses
/// as its prediction "confidence level" (section 5.3).
class RandomForestClassifier {
 public:
  RandomForestClassifier() = default;

  /// Fits `params.num_trees` trees. Deterministic for a fixed seed
  /// regardless of thread count (per-tree seeds are derived up front).
  Status Fit(const Dataset& data, const ForestParams& params, uint64_t seed);

  /// Fits on the view `data[rows]` without materializing a subset copy —
  /// bootstrap samples, bin edges, and OOB are all computed over the
  /// view, so this trains the same forest `Fit(data.Subset(rows))` would.
  /// Cross-validation trains each fold this way.
  Status FitOnRows(const Dataset& data, const std::vector<size_t>& rows,
                   const ForestParams& params, uint64_t seed);

  /// Fits every job's forest as one task set on `params.num_threads`
  /// workers: first one task per job (binning its view, drawing its
  /// per-tree seeds and bootstrap samples), then all jobs' trees from
  /// one queue. Each forest's trees and importances equal what
  /// FitOnRows(data, *job.rows, params, job.seed) gives; no OOB pass
  /// runs, so oob_accuracy() is 0. Jobs are validated first (a view
  /// holds at most 2^32 - 1 rows), so an invalid job changes no forest;
  /// a later failure leaves every forest unfitted. Either way the
  /// lowest-indexed failure is returned, whatever the schedule.
  static Status FitForests(const Dataset& data, const ForestParams& params,
                           std::vector<ForestJob>& jobs);

  bool fitted() const { return !trees_.empty(); }

  /// Averaged class-probability vector for one feature row: the per-row,
  /// multi-class reference walk. Production scoring goes through the
  /// compiled `FlatForest`, which is bit-identical to PredictProba(row)[1].
  std::vector<double> PredictProba(const std::vector<double>& row) const;

  /// Gini importances averaged over trees; sums to ~1.
  const std::vector<double>& feature_importances() const {
    return importances_;
  }

  /// Out-of-bag accuracy estimate: each row is scored only by trees
  /// whose bootstrap sample missed it. Computed by Fit/FitOnRows with
  /// bootstrap=true (0 otherwise, and after FitForests); rows never
  /// out-of-bag are skipped.
  double oob_accuracy() const { return oob_accuracy_; }

  size_t num_trees() const { return trees_.size(); }
  int num_classes() const { return num_classes_; }
  const std::vector<DecisionTreeClassifier>& trees() const { return trees_; }

  /// Serializes the fitted forest (trees, importances, OOB score) to
  /// full-precision text, the input of golden model digests.
  std::string Serialize() const;

 private:
  /// The one tree-fitting routine behind FitOnRows and FitForests. When
  /// `in_bag` is non-null, `jobs` holds one job and `*in_bag` receives
  /// its per-tree in-bag masks over view positions.
  static Status FitTrees(const Dataset& data, const ForestParams& params,
                         std::vector<ForestJob>& jobs,
                         std::vector<std::vector<char>>* in_bag);

  std::vector<DecisionTreeClassifier> trees_;
  std::vector<double> importances_;
  double oob_accuracy_ = 0.0;
  int num_classes_ = 0;
  size_t num_features_ = 0;
};

}  // namespace cloudsurv::ml

#endif  // CLOUDSURV_ML_RANDOM_FOREST_H_
