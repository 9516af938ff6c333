#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace cloudsurv::ml {

namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double LogLoss(const std::vector<int>& labels,
               const std::vector<double>& scores) {
  double loss = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    const double p =
        std::clamp(Sigmoid(scores[i]), 1e-12, 1.0 - 1e-12);
    loss -= labels[i] == 1 ? std::log(p) : std::log(1.0 - p);
  }
  return loss / static_cast<double>(labels.size());
}

}  // namespace

// Shared state of one histogram-mode Fit. Per (feature, bin) the flat
// histogram holds 3 doubles: [gradient sum, hessian sum, row count].
struct GradientBoostedTreesClassifier::BinnedGbdtContext {
  static constexpr size_t kStride = 3;

  const BinnedDataset* binned = nullptr;
  const std::vector<double>* gradients = nullptr;
  const std::vector<double>* hessians = nullptr;
  const GbdtParams* params = nullptr;
  std::vector<size_t> offset;  ///< Per-feature start in the flat layout.
  size_t hist_size = 0;

  void ComputeHistogram(const std::vector<size_t>& indices, size_t begin,
                        size_t end, std::vector<double>& out) const {
    std::fill(out.begin(), out.end(), 0.0);
    const std::vector<double>& g = *gradients;
    const std::vector<double>& h = *hessians;
    for (size_t f = 0; f < binned->num_features(); ++f) {
      if (binned->constant(f)) continue;
      const uint8_t* column = binned->column(f);
      double* hist = out.data() + offset[f];
      for (size_t i = begin; i < end; ++i) {
        const size_t row = indices[i];
        double* cell = hist + static_cast<size_t>(column[row]) * kStride;
        cell[0] += g[row];
        cell[1] += h[row];
        cell[2] += 1.0;
      }
    }
  }
};

double GradientBoostedTreesClassifier::Tree::Predict(
    const std::vector<double>& row) const {
  const Node* node = &nodes[0];
  while (node->feature >= 0) {
    node = row[static_cast<size_t>(node->feature)] <= node->threshold
               ? &nodes[static_cast<size_t>(node->left)]
               : &nodes[static_cast<size_t>(node->right)];
  }
  return node->value;
}

Status GradientBoostedTreesClassifier::Fit(const Dataset& data,
                                           const GbdtParams& params,
                                           uint64_t seed) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot fit GBDT on empty data");
  }
  if (data.num_classes() != 2) {
    return Status::InvalidArgument("GBDT supports binary labels only");
  }
  if (params.num_rounds <= 0 || params.learning_rate <= 0.0 ||
      params.max_depth < 0 ||
      !(params.subsample > 0.0 && params.subsample <= 1.0)) {
    return Status::InvalidArgument("invalid GBDT params");
  }
  const size_t n = data.num_rows();
  num_features_ = data.num_features();
  trees_.clear();
  train_loss_.clear();
  importances_.assign(num_features_, 0.0);

  // Base score: log-odds of the class prior.
  const double q = std::clamp(data.ClassFraction(1), 1e-6, 1.0 - 1e-6);
  base_score_ = std::log(q / (1.0 - q));

  // Bin the matrix once; codes are reused by every boosting round (the
  // gradients change per round, the binning never does).
  BinnedDataset binned;
  BinnedGbdtContext ctx;
  const bool histogram =
      params.split_algorithm == SplitAlgorithm::kHistogram;
  if (histogram) {
    CLOUDSURV_ASSIGN_OR_RETURN(binned, BinnedDataset::FromDataset(data));
  }

  std::vector<double> scores(n, base_score_);
  std::vector<double> gradients(n), hessians(n);
  if (histogram) {
    ctx.binned = &binned;
    ctx.gradients = &gradients;
    ctx.hessians = &hessians;
    ctx.params = &params;
    ctx.offset.resize(num_features_);
    size_t off = 0;
    for (size_t f = 0; f < num_features_; ++f) {
      ctx.offset[f] = off;
      off += static_cast<size_t>(binned.num_bins(f)) *
             BinnedGbdtContext::kStride;
    }
    ctx.hist_size = off;
  }
  Rng rng(seed);

  for (int round = 0; round < params.num_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) {
      const double p = Sigmoid(scores[i]);
      gradients[i] = p - static_cast<double>(data.label(i));
      hessians[i] = std::max(p * (1.0 - p), 1e-12);
    }
    // Row subsample.
    std::vector<size_t> indices;
    if (params.subsample < 1.0) {
      indices.reserve(static_cast<size_t>(
          static_cast<double>(n) * params.subsample) + 1);
      for (size_t i = 0; i < n; ++i) {
        if (rng.Uniform() < params.subsample) indices.push_back(i);
      }
      if (indices.empty()) indices.push_back(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1)));
    } else {
      indices.resize(n);
      std::iota(indices.begin(), indices.end(), 0);
    }

    Tree tree;
    if (histogram) {
      BuildNodeBinned(ctx, indices, 0, indices.size(), 0, &tree, {});
    } else {
      BuildNode(data, gradients, hessians, indices, 0, indices.size(), 0,
                params, &tree);
    }
    // Update scores with the shrunk tree on ALL rows.
    for (size_t i = 0; i < n; ++i) {
      scores[i] += tree.Predict(data.row(i));
    }
    trees_.push_back(std::move(tree));
    train_loss_.push_back(LogLoss(data.labels(), scores));
  }

  const double total =
      std::accumulate(importances_.begin(), importances_.end(), 0.0);
  if (total > 0.0) {
    for (double& v : importances_) v /= total;
  }
  return Status::OK();
}

int GradientBoostedTreesClassifier::BuildNode(
    const Dataset& data, const std::vector<double>& gradients,
    const std::vector<double>& hessians, std::vector<size_t>& indices,
    size_t begin, size_t end, int depth, const GbdtParams& params,
    Tree* tree) {
  const size_t n = end - begin;
  double g_total = 0.0, h_total = 0.0;
  for (size_t i = begin; i < end; ++i) {
    g_total += gradients[indices[i]];
    h_total += hessians[indices[i]];
  }
  const double parent_objective =
      g_total * g_total / (h_total + params.lambda);

  auto make_leaf = [&]() {
    Node leaf;
    leaf.value =
        -params.learning_rate * g_total / (h_total + params.lambda);
    tree->nodes.push_back(leaf);
    return static_cast<int>(tree->nodes.size() - 1);
  };

  if (depth >= params.max_depth || n < 2 * params.min_samples_leaf) {
    return make_leaf();
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-10;
  std::vector<std::pair<double, size_t>> sorted(n);  // (value, row)
  for (size_t f = 0; f < num_features_; ++f) {
    for (size_t i = 0; i < n; ++i) {
      const size_t row = indices[begin + i];
      sorted[i] = {data.feature(row, f), row};
    }
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;
    double g_left = 0.0, h_left = 0.0;
    for (size_t i = 0; i + 1 < n; ++i) {
      g_left += gradients[sorted[i].second];
      h_left += hessians[sorted[i].second];
      if (sorted[i].first == sorted[i + 1].first) continue;
      const size_t n_left = i + 1;
      const size_t n_right = n - n_left;
      if (n_left < params.min_samples_leaf ||
          n_right < params.min_samples_leaf) {
        continue;
      }
      const double g_right = g_total - g_left;
      const double h_right = h_total - h_left;
      const double gain =
          g_left * g_left / (h_left + params.lambda) +
          g_right * g_right / (h_right + params.lambda) -
          parent_objective;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
      }
    }
  }
  if (best_feature < 0) {
    return make_leaf();
  }

  auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end), [&](size_t row) {
        return data.feature(row, static_cast<size_t>(best_feature)) <=
               best_threshold;
      });
  const size_t mid = static_cast<size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) {
    return make_leaf();
  }
  importances_[static_cast<size_t>(best_feature)] += best_gain;

  const int node_index = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  tree->nodes[static_cast<size_t>(node_index)].feature = best_feature;
  tree->nodes[static_cast<size_t>(node_index)].threshold = best_threshold;
  const int left = BuildNode(data, gradients, hessians, indices, begin, mid,
                             depth + 1, params, tree);
  const int right = BuildNode(data, gradients, hessians, indices, mid, end,
                              depth + 1, params, tree);
  tree->nodes[static_cast<size_t>(node_index)].left = left;
  tree->nodes[static_cast<size_t>(node_index)].right = right;
  return node_index;
}

int GradientBoostedTreesClassifier::BuildNodeBinned(
    BinnedGbdtContext& ctx, std::vector<size_t>& indices, size_t begin,
    size_t end, int depth, Tree* tree, std::vector<double> node_hist) {
  const GbdtParams& params = *ctx.params;
  constexpr size_t S = BinnedGbdtContext::kStride;
  const size_t n = end - begin;
  double g_total = 0.0, h_total = 0.0;
  for (size_t i = begin; i < end; ++i) {
    g_total += (*ctx.gradients)[indices[i]];
    h_total += (*ctx.hessians)[indices[i]];
  }
  const double parent_objective =
      g_total * g_total / (h_total + params.lambda);

  auto make_leaf = [&]() {
    Node leaf;
    leaf.value =
        -params.learning_rate * g_total / (h_total + params.lambda);
    tree->nodes.push_back(leaf);
    return static_cast<int>(tree->nodes.size() - 1);
  };

  if (depth >= params.max_depth || n < 2 * params.min_samples_leaf) {
    return make_leaf();
  }

  if (node_hist.empty()) {
    node_hist.assign(ctx.hist_size, 0.0);
    ctx.ComputeHistogram(indices, begin, end, node_hist);
  }

  int best_feature = -1;
  int best_bin = -1;
  double best_gain = 1e-10;
  for (size_t f = 0; f < ctx.binned->num_features(); ++f) {
    const int num_bins = ctx.binned->num_bins(f);
    if (num_bins < 2) continue;
    const double* h = node_hist.data() + ctx.offset[f];
    double g_left = 0.0, h_left = 0.0;
    size_t n_left = 0;
    for (int b = 0; b + 1 < num_bins; ++b) {
      const double* cell = h + static_cast<size_t>(b) * S;
      g_left += cell[0];
      h_left += cell[1];
      if (cell[2] == 0.0) continue;  // empty bin: same cut as previous
      n_left += static_cast<size_t>(cell[2]);
      const size_t n_right = n - n_left;
      if (n_right == 0) break;
      if (n_left < params.min_samples_leaf ||
          n_right < params.min_samples_leaf) {
        continue;
      }
      const double g_right = g_total - g_left;
      const double h_right = h_total - h_left;
      const double gain = g_left * g_left / (h_left + params.lambda) +
                          g_right * g_right / (h_right + params.lambda) -
                          parent_objective;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_bin = b;
      }
    }
  }
  if (best_feature < 0) {
    return make_leaf();
  }

  const uint8_t* best_column =
      ctx.binned->column(static_cast<size_t>(best_feature));
  auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](size_t row) {
        return static_cast<int>(best_column[row]) <= best_bin;
      });
  const size_t mid = static_cast<size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) {
    return make_leaf();
  }
  importances_[static_cast<size_t>(best_feature)] += best_gain;

  // Refine the threshold toward the node-local gap midpoint (see
  // BinnedDataset::refined_threshold).
  int next_bin = best_bin + 1;
  {
    const double* h =
        node_hist.data() + ctx.offset[static_cast<size_t>(best_feature)];
    const int num_bins =
        ctx.binned->num_bins(static_cast<size_t>(best_feature));
    while (next_bin + 1 < num_bins &&
           h[static_cast<size_t>(next_bin) * S + 2] == 0.0) {
      ++next_bin;
    }
  }

  const int node_index = static_cast<int>(tree->nodes.size());
  tree->nodes.emplace_back();
  tree->nodes[static_cast<size_t>(node_index)].feature = best_feature;
  tree->nodes[static_cast<size_t>(node_index)].threshold =
      ctx.binned->refined_threshold(static_cast<size_t>(best_feature),
                                    best_bin, next_bin);

  // Parent-minus-sibling: scan only the smaller child's histogram.
  const size_t n_left_child = mid - begin;
  const size_t n_right_child = end - mid;
  auto child_may_split = [&](size_t child_n) {
    return depth + 1 < params.max_depth &&
           child_n >= 2 * params.min_samples_leaf;
  };
  std::vector<double> left_hist;
  std::vector<double> right_hist;
  if (child_may_split(n_left_child) || child_may_split(n_right_child)) {
    std::vector<double> small(ctx.hist_size, 0.0);
    if (n_left_child <= n_right_child) {
      ctx.ComputeHistogram(indices, begin, mid, small);
      for (size_t i = 0; i < ctx.hist_size; ++i) node_hist[i] -= small[i];
      left_hist = std::move(small);
      right_hist = std::move(node_hist);
    } else {
      ctx.ComputeHistogram(indices, mid, end, small);
      for (size_t i = 0; i < ctx.hist_size; ++i) node_hist[i] -= small[i];
      right_hist = std::move(small);
      left_hist = std::move(node_hist);
    }
  }

  const int left = BuildNodeBinned(ctx, indices, begin, mid, depth + 1,
                                   tree, std::move(left_hist));
  const int right = BuildNodeBinned(ctx, indices, mid, end, depth + 1,
                                    tree, std::move(right_hist));
  tree->nodes[static_cast<size_t>(node_index)].left = left;
  tree->nodes[static_cast<size_t>(node_index)].right = right;
  return node_index;
}

double GradientBoostedTreesClassifier::PredictLogit(
    const std::vector<double>& row) const {
  double score = base_score_;
  for (const Tree& tree : trees_) score += tree.Predict(row);
  return score;
}

double GradientBoostedTreesClassifier::PredictProbability(
    const std::vector<double>& row) const {
  return Sigmoid(PredictLogit(row));
}

int GradientBoostedTreesClassifier::Predict(
    const std::vector<double>& row) const {
  return PredictProbability(row) > 0.5 ? 1 : 0;
}

Result<std::vector<int>> GradientBoostedTreesClassifier::PredictBatch(
    const Dataset& data) const {
  if (!fitted()) {
    return Status::FailedPrecondition("GBDT is not fitted");
  }
  if (data.num_features() != num_features_) {
    return Status::InvalidArgument("feature count mismatch");
  }
  std::vector<int> out;
  out.reserve(data.num_rows());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    out.push_back(Predict(data.row(i)));
  }
  return out;
}

Result<std::vector<double>>
GradientBoostedTreesClassifier::PredictPositiveProba(
    const Dataset& data) const {
  if (!fitted()) {
    return Status::FailedPrecondition("GBDT is not fitted");
  }
  if (data.num_features() != num_features_) {
    return Status::InvalidArgument("feature count mismatch");
  }
  std::vector<double> out;
  out.reserve(data.num_rows());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    out.push_back(PredictProbability(data.row(i)));
  }
  return out;
}

}  // namespace cloudsurv::ml
