#ifndef CLOUDSURV_ML_GBDT_H_
#define CLOUDSURV_ML_GBDT_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ml/binned_dataset.h"
#include "ml/dataset.h"

namespace cloudsurv::ml {

/// Hyper-parameters of the boosted ensemble.
struct GbdtParams {
  int num_rounds = 100;          ///< Trees in the ensemble.
  double learning_rate = 0.1;    ///< Shrinkage per tree.
  int max_depth = 4;             ///< Depth of each regression tree.
  size_t min_samples_leaf = 10;  ///< Minimum rows per leaf.
  double lambda = 1.0;           ///< L2 regularization on leaf values.
  double subsample = 1.0;        ///< Row-sampling fraction per round.
  /// Node-split search. kHistogram bins the matrix once before round 0
  /// and scans (gradient, hessian, count) histograms per node.
  SplitAlgorithm split_algorithm = SplitAlgorithm::kHistogram;
};

/// Gradient-boosted decision trees for binary classification with
/// logistic loss and second-order (Newton) leaf values — the other
/// dominant tree-ensemble family the paper's related work mentions
/// (refs [1, 2]: ensembles of decision trees dominate data-science
/// competitions). Provided as an alternative model to the random
/// forest; `bench/model_comparison` pits them against each other on the
/// paper's task.
///
/// Each round fits a regression tree to the loss gradients: split gain
/// and leaf weights follow the standard second-order formulation
/// (gain = G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda),
/// leaf w = -G/(H+lambda)).
class GradientBoostedTreesClassifier {
 public:
  GradientBoostedTreesClassifier() = default;

  /// Fits the ensemble; binary labels only. Deterministic per seed.
  Status Fit(const Dataset& data, const GbdtParams& params, uint64_t seed);

  bool fitted() const { return !trees_.empty(); }

  /// Raw additive score f(x) (log-odds).
  double PredictLogit(const std::vector<double>& row) const;

  /// P[y = 1 | x] = sigmoid(f(x)).
  double PredictProbability(const std::vector<double>& row) const;

  /// Hard prediction at the 0.5 probability threshold.
  int Predict(const std::vector<double>& row) const;

  Result<std::vector<int>> PredictBatch(const Dataset& data) const;
  Result<std::vector<double>> PredictPositiveProba(
      const Dataset& data) const;

  /// Total split gain attributed to each feature, normalized to sum 1.
  const std::vector<double>& feature_importances() const {
    return importances_;
  }

  /// Training log-loss after each round (length = fitted rounds).
  const std::vector<double>& training_loss() const { return train_loss_; }

  size_t num_trees() const { return trees_.size(); }
  size_t num_features() const { return num_features_; }

 private:
  struct Node {
    int feature = -1;         ///< -1 for leaves.
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double value = 0.0;       ///< Leaf weight (already shrunk).
  };
  struct Tree {
    std::vector<Node> nodes;
    double Predict(const std::vector<double>& row) const;
  };

  int BuildNode(const Dataset& data, const std::vector<double>& gradients,
                const std::vector<double>& hessians,
                std::vector<size_t>& indices, size_t begin, size_t end,
                int depth, const GbdtParams& params, Tree* tree);

  struct BinnedGbdtContext;  // defined in gbdt.cc
  int BuildNodeBinned(BinnedGbdtContext& ctx, std::vector<size_t>& indices,
                      size_t begin, size_t end, int depth, Tree* tree,
                      std::vector<double> node_hist);

  std::vector<Tree> trees_;
  std::vector<double> importances_;
  std::vector<double> train_loss_;
  double base_score_ = 0.0;  ///< Initial log-odds (class prior).
  size_t num_features_ = 0;
};

}  // namespace cloudsurv::ml

#endif  // CLOUDSURV_ML_GBDT_H_
