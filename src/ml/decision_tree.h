#ifndef CLOUDSURV_ML_DECISION_TREE_H_
#define CLOUDSURV_ML_DECISION_TREE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ml/binned_dataset.h"
#include "ml/dataset.h"

namespace cloudsurv::ml {

/// Growth controls for a CART tree.
struct TreeParams {
  int max_depth = 16;            ///< Maximum node depth (root = 0).
  size_t min_samples_split = 2;  ///< Need >= this many samples to split.
  size_t min_samples_leaf = 1;   ///< Each child keeps >= this many.
  /// Features examined per node: -1 = all, otherwise a random subset of
  /// this size (this is what makes a forest "random").
  int max_features = -1;
  /// Minimum gini decrease (weighted by node fraction) to accept a split.
  double min_impurity_decrease = 0.0;
  /// Optional per-class weights (empty = all 1.0). Weights scale class
  /// counts in impurity computations and leaf distributions — the
  /// standard lever for imbalanced cohorts such as the paper's Premium
  /// subgroup (section 5.2 attributes its low recall to imbalance).
  std::vector<double> class_weights;
  /// Node-split search. kHistogram scans pre-binned codes in
  /// O(n + bins) per feature; kExact re-sorts values (O(n log n)).
  SplitAlgorithm split_algorithm = SplitAlgorithm::kHistogram;
};

/// One distinct row of a tree's sample: its position in the binned rows
/// and how many times the sample holds it.
struct WeightedRow {
  uint32_t row;
  uint32_t weight;
};

/// Tallies the `num_draws` row positions `draw(0)`, `draw(1)`, ... (called
/// in that order, each in [0, num_rows), num_draws <= 2^32 - 1) into the
/// sample's weighted rows, ascending by row. A bootstrap of n draws from
/// n rows holds about 63% of them, so a tree's histogram counts and node
/// partitions visit each distinct row once instead of once per draw.
template <typename Draw>
std::vector<WeightedRow> TallyRows(size_t num_rows, size_t num_draws,
                                   Draw&& draw) {
  std::vector<uint32_t> counts(num_rows, 0);
  size_t distinct = 0;
  for (size_t i = 0; i < num_draws; ++i) {
    distinct += counts[static_cast<size_t>(draw(i))]++ == 0 ? 1 : 0;
  }
  std::vector<WeightedRow> sample;
  sample.reserve(distinct);
  for (size_t r = 0; r < num_rows; ++r) {
    if (counts[r] > 0) sample.push_back({static_cast<uint32_t>(r), counts[r]});
  }
  return sample;
}

/// CART decision-tree classifier with gini impurity, the base learner of
/// the paper's random forest (section 2, ref [10]). Leaves store class
/// frequencies, so PredictProba yields the per-leaf class distribution
/// the paper uses as its prediction confidence (section 5.3).
class DecisionTreeClassifier {
 public:
  DecisionTreeClassifier() = default;

  /// Learns a tree on all rows of `data`.
  Status Fit(const Dataset& data, const TreeParams& params, uint64_t seed);

  /// Learns a tree on the multiset of rows given by `sample_indices`
  /// (duplicates allowed — this is how the forest passes bootstrap
  /// samples without materializing them).
  Status FitSubset(const Dataset& data,
                   const std::vector<size_t>& sample_indices,
                   const TreeParams& params, uint64_t seed);

  /// Learns a tree from a pre-binned dataset over `sample`, binned rows
  /// (not original dataset rows) each counted `weight` times, as
  /// TallyRows builds it: the tree equals one fit on the multiset that
  /// repeats each row `weight` times. The node partition reorders the
  /// sample in place, so a caller done with it moves it in.
  /// `labels[i]` is the class of binned row i; a sampled row whose label
  /// is outside [0, num_classes), a zero weight, or weights summing past
  /// 2^32 - 1 are rejected.
  /// Ensembles use this to share one BinnedDataset across all trees
  /// instead of re-binning per tree. Ignores params.split_algorithm
  /// (this IS the histogram path).
  Status FitBinned(const BinnedDataset& binned, const std::vector<int>& labels,
                   int num_classes, std::vector<WeightedRow> sample,
                   const TreeParams& params, uint64_t seed);

  bool fitted() const { return !nodes_.empty(); }

  /// Class-probability vector for one feature row.
  std::vector<double> PredictProba(const std::vector<double>& row) const;

  /// Most probable class for one feature row.
  int Predict(const std::vector<double>& row) const;

  /// Predicted classes for every row of `data` (feature count must match
  /// the training data).
  Result<std::vector<int>> PredictBatch(const Dataset& data) const;

  /// Gini feature importances: total impurity decrease contributed by
  /// each feature, weighted by node size and normalized to sum to 1
  /// (all-zero if the tree is a single leaf).
  const std::vector<double>& feature_importances() const {
    return importances_;
  }

  size_t num_nodes() const { return nodes_.size(); }
  int depth() const { return depth_; }
  int num_classes() const { return num_classes_; }
  size_t num_features() const { return num_features_; }

  /// Read-only view of one stored node, for compilers of alternative
  /// inference layouts (`ml::FlatForest`). Index space matches
  /// num_nodes(); node 0 is the root; `feature < 0` marks a leaf whose
  /// class distribution is `*probabilities`.
  struct NodeView {
    int feature;
    double threshold;
    int left;
    int right;
    const std::vector<double>* probabilities;
  };
  NodeView node_view(size_t i) const {
    const Node& n = nodes_[i];
    return {n.feature, n.threshold, n.left, n.right, &n.probabilities};
  }

  /// Leaf class distribution for one feature row, by reference — the
  /// allocation-free core of PredictProba (valid as long as the tree).
  const std::vector<double>& LeafDistribution(
      const std::vector<double>& row) const;

  /// Serializes the fitted tree to a compact line-oriented text form
  /// (doubles printed with full precision), the input of golden model
  /// digests.
  std::string Serialize() const;

 private:
  struct Node {
    int feature = -1;        ///< Split feature; -1 for leaves.
    double threshold = 0.0;  ///< Go left iff x[feature] <= threshold.
    int left = -1;
    int right = -1;
    std::vector<double> probabilities;  ///< Leaf class distribution.
  };

  int BuildNode(const Dataset& data, std::vector<size_t>& indices,
                size_t begin, size_t end, int depth, Rng& rng,
                const TreeParams& params, size_t total_samples);

  struct BinnedBuildContext;  // defined in decision_tree.cc
  int BuildNodeBinned(BinnedBuildContext& ctx,
                      std::vector<WeightedRow>& sample, size_t begin,
                      size_t end, int depth, Rng& rng);

  std::vector<Node> nodes_;
  std::vector<double> importances_;
  int num_classes_ = 0;
  size_t num_features_ = 0;
  int depth_ = 0;
};

}  // namespace cloudsurv::ml

#endif  // CLOUDSURV_ML_DECISION_TREE_H_
