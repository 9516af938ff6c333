#include "ml/decision_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "obs/metrics.h"

namespace cloudsurv::ml {

namespace {

// 64-bit words of a per-candidate occupied-bin bitmap (256 bins).
constexpr int kOccupiedWords = BinnedDataset::kMaxBins / 64;

double GiniFromCounts(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) {
    const double p = c / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

// Per-tree split-search time (one sample per fitted tree, exact or
// histogram path alike; ensembles contribute one sample per member).
obs::Histogram* TreeFitHistogram() {
  static obs::Histogram* const tree_fit_us =
      obs::Registry::Default().GetHistogram(
          "cloudsurv_ml_tree_fit_us",
          "Split search + node construction time of one decision tree");
  return tree_fit_us;
}

}  // namespace

Status DecisionTreeClassifier::Fit(const Dataset& data,
                                   const TreeParams& params, uint64_t seed) {
  std::vector<size_t> all(data.num_rows());
  std::iota(all.begin(), all.end(), 0);
  return FitSubset(data, all, params, seed);
}

Status DecisionTreeClassifier::FitSubset(
    const Dataset& data, const std::vector<size_t>& sample_indices,
    const TreeParams& params, uint64_t seed) {
  if (data.empty() || sample_indices.empty()) {
    return Status::InvalidArgument("cannot fit a tree on empty data");
  }
  if (params.max_depth < 0 || params.min_samples_leaf == 0) {
    return Status::InvalidArgument("invalid tree params");
  }
  for (size_t i : sample_indices) {
    if (i >= data.num_rows()) {
      return Status::OutOfRange("sample index out of range");
    }
  }
  if (!params.class_weights.empty() &&
      params.class_weights.size() !=
          static_cast<size_t>(data.num_classes())) {
    return Status::InvalidArgument(
        "class_weights size must match num_classes");
  }
  for (double w : params.class_weights) {
    if (!(w > 0.0)) {
      return Status::InvalidArgument("class weights must be positive");
    }
  }
  if (params.split_algorithm == SplitAlgorithm::kHistogram) {
    // Standalone binned fit: bin the full dataset once (ensembles skip
    // this by sharing a BinnedDataset through FitBinned directly).
    if (data.num_rows() > UINT32_MAX || sample_indices.size() > UINT32_MAX) {
      return Status::InvalidArgument(
          "a histogram tree fit supports at most 2^32 - 1 rows and draws");
    }
    CLOUDSURV_ASSIGN_OR_RETURN(BinnedDataset binned,
                               BinnedDataset::FromDataset(data));
    return FitBinned(
        binned, data.labels(), data.num_classes(),
        TallyRows(data.num_rows(), sample_indices.size(),
                  [&sample_indices](size_t i) { return sample_indices[i]; }),
        params, seed);
  }
  obs::ScopedTimer timer(TreeFitHistogram());
  nodes_.clear();
  depth_ = 0;
  num_classes_ = data.num_classes();
  num_features_ = data.num_features();
  importances_.assign(num_features_, 0.0);

  std::vector<size_t> indices = sample_indices;
  Rng rng(seed);
  BuildNode(data, indices, 0, indices.size(), 0, rng, params,
            indices.size());

  // Normalize importances.
  const double total =
      std::accumulate(importances_.begin(), importances_.end(), 0.0);
  if (total > 0.0) {
    for (double& v : importances_) v /= total;
  }
  return Status::OK();
}

int DecisionTreeClassifier::BuildNode(const Dataset& data,
                                      std::vector<size_t>& indices,
                                      size_t begin, size_t end, int depth,
                                      Rng& rng, const TreeParams& params,
                                      size_t total_samples) {
  const size_t n = end - begin;
  auto class_weight = [&](int cls) {
    return params.class_weights.empty()
               ? 1.0
               : params.class_weights[static_cast<size_t>(cls)];
  };
  std::vector<double> counts(static_cast<size_t>(num_classes_), 0.0);
  double weight_total = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const int label = data.label(indices[i]);
    counts[static_cast<size_t>(label)] += class_weight(label);
    weight_total += class_weight(label);
  }
  const double n_d = weight_total;
  const double node_gini = GiniFromCounts(counts, n_d);

  auto make_leaf = [&]() {
    Node leaf;
    leaf.probabilities.resize(counts.size());
    for (size_t c = 0; c < counts.size(); ++c) {
      leaf.probabilities[c] = counts[c] / n_d;
    }
    nodes_.push_back(std::move(leaf));
    depth_ = std::max(depth_, depth);
    return static_cast<int>(nodes_.size() - 1);
  };

  if (depth >= params.max_depth || n < params.min_samples_split ||
      node_gini == 0.0 || n < 2 * params.min_samples_leaf) {
    return make_leaf();
  }

  // Choose candidate features (without replacement).
  const int d = static_cast<int>(num_features_);
  int k = params.max_features <= 0 ? d : std::min(params.max_features, d);
  std::vector<int> features(static_cast<size_t>(d));
  std::iota(features.begin(), features.end(), 0);
  for (int i = 0; i < k; ++i) {
    const int j =
        static_cast<int>(rng.UniformInt(i, static_cast<int64_t>(d) - 1));
    std::swap(features[static_cast<size_t>(i)],
              features[static_cast<size_t>(j)]);
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_decrease = params.min_impurity_decrease;

  // Scratch: (value, label) pairs sorted per candidate feature.
  std::vector<std::pair<double, int>> sorted(n);
  std::vector<double> left_counts(counts.size());
  for (int fi = 0; fi < k; ++fi) {
    const int f = features[static_cast<size_t>(fi)];
    for (size_t i = 0; i < n; ++i) {
      const size_t row = indices[begin + i];
      sorted[i] = {data.feature(row, static_cast<size_t>(f)),
                   data.label(row)};
    }
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front().first == sorted.back().first) continue;  // constant

    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    double left_weight = 0.0;
    for (size_t i = 0; i + 1 < n; ++i) {
      const double w = class_weight(sorted[i].second);
      left_counts[static_cast<size_t>(sorted[i].second)] += w;
      left_weight += w;
      if (sorted[i].first == sorted[i + 1].first) continue;
      const size_t n_left = i + 1;
      const size_t n_right = n - n_left;
      if (n_left < params.min_samples_leaf ||
          n_right < params.min_samples_leaf) {
        continue;
      }
      const double right_weight = n_d - left_weight;
      const double gini_left = GiniFromCounts(left_counts, left_weight);
      double gini_right;
      {
        double sum_sq = 0.0;
        for (size_t c = 0; c < counts.size(); ++c) {
          const double rc = counts[c] - left_counts[c];
          const double p = rc / right_weight;
          sum_sq += p * p;
        }
        gini_right = 1.0 - sum_sq;
      }
      const double weighted =
          (left_weight * gini_left + right_weight * gini_right) / n_d;
      const double decrease = node_gini - weighted;
      if (decrease > best_decrease) {
        best_decrease = decrease;
        best_feature = f;
        best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
      }
    }
  }

  if (best_feature < 0) {
    return make_leaf();
  }

  // Partition indices in place around the chosen split.
  auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end), [&](size_t row) {
        return data.feature(row, static_cast<size_t>(best_feature)) <=
               best_threshold;
      });
  const size_t mid =
      static_cast<size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) {
    // Numerically degenerate split; bail out to a leaf.
    return make_leaf();
  }

  importances_[static_cast<size_t>(best_feature)] +=
      (static_cast<double>(n) / static_cast<double>(total_samples)) *
      best_decrease;

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(node_index)].feature = best_feature;
  nodes_[static_cast<size_t>(node_index)].threshold = best_threshold;
  const int left = BuildNode(data, indices, begin, mid, depth + 1, rng,
                             params, total_samples);
  const int right =
      BuildNode(data, indices, mid, end, depth + 1, rng, params,
                total_samples);
  nodes_[static_cast<size_t>(node_index)].left = left;
  nodes_[static_cast<size_t>(node_index)].right = right;
  return node_index;
}

// Shared state of one FitBinned call. Histograms store RAW (unweighted)
// per-class counts, each sampled row adding its draw count; class weights
// are applied by multiplication only when a gini is evaluated.
struct DecisionTreeClassifier::BinnedBuildContext {
  const BinnedDataset* binned = nullptr;
  const std::vector<int>* labels = nullptr;
  const TreeParams* params = nullptr;
  size_t total_samples = 0;
  size_t num_classes = 0;
  int num_candidates = 0;  ///< features drawn per node
  /// Histogram arena shared by every node of the tree: the node's i-th
  /// candidate feature f counts into hist[i * slot_size, ...), holding
  /// num_bins(f) * num_classes counts (bin-major, class-minor). A node
  /// finishes with the arena, and zeroes what it counted, before its
  /// children are built, so the arena is all-zero between nodes.
  size_t slot_size = 0;
  std::vector<uint32_t> hist;
  /// Per candidate, a bitmap of the bins the node's rows occupy; filled
  /// only when the node holds fewer distinct rows than the feature has
  /// bins.
  std::vector<uint64_t> occupied;
  std::vector<int> features;  ///< candidate-draw buffer
};

Status DecisionTreeClassifier::FitBinned(
    const BinnedDataset& binned, const std::vector<int>& labels,
    int num_classes, std::vector<WeightedRow> sample,
    const TreeParams& params, uint64_t seed) {
  if (binned.empty() || sample.empty()) {
    return Status::InvalidArgument("cannot fit a tree on empty data");
  }
  if (params.max_depth < 0 || params.min_samples_leaf == 0) {
    return Status::InvalidArgument("invalid tree params");
  }
  if (num_classes <= 0) {
    return Status::InvalidArgument("num_classes must be positive");
  }
  if (labels.size() != binned.num_rows()) {
    return Status::InvalidArgument("labels must cover every binned row");
  }
  size_t total_weight = 0;
  for (const WeightedRow& s : sample) {
    if (s.row >= binned.num_rows()) {
      return Status::OutOfRange("sample index out of range");
    }
    if (labels[s.row] < 0 || labels[s.row] >= num_classes) {
      return Status::InvalidArgument("label out of range [0, num_classes)");
    }
    if (s.weight == 0) {
      return Status::InvalidArgument("sample weights must be positive");
    }
    total_weight += s.weight;
  }
  if (total_weight > UINT32_MAX) {
    return Status::InvalidArgument(
        "a tree sample holds at most 2^32 - 1 draws");
  }
  if (!params.class_weights.empty() &&
      params.class_weights.size() != static_cast<size_t>(num_classes)) {
    return Status::InvalidArgument(
        "class_weights size must match num_classes");
  }
  for (double w : params.class_weights) {
    if (!(w > 0.0)) {
      return Status::InvalidArgument("class weights must be positive");
    }
  }
  obs::ScopedTimer timer(TreeFitHistogram());
  nodes_.clear();
  depth_ = 0;
  num_classes_ = num_classes;
  num_features_ = binned.num_features();
  importances_.assign(num_features_, 0.0);

  BinnedBuildContext ctx;
  ctx.binned = &binned;
  ctx.labels = &labels;
  ctx.params = &params;
  ctx.total_samples = total_weight;
  ctx.num_classes = static_cast<size_t>(num_classes);
  int max_bins = 1;
  for (size_t f = 0; f < num_features_; ++f) {
    max_bins = std::max(max_bins, binned.num_bins(f));
  }
  const int d = static_cast<int>(num_features_);
  ctx.num_candidates =
      params.max_features <= 0 ? d : std::min(params.max_features, d);
  ctx.slot_size = static_cast<size_t>(max_bins) * ctx.num_classes;
  ctx.hist.resize(static_cast<size_t>(ctx.num_candidates) * ctx.slot_size);
  ctx.occupied.resize(static_cast<size_t>(ctx.num_candidates) *
                      kOccupiedWords);
  ctx.features.resize(num_features_);

  Rng rng(seed);
  BuildNodeBinned(ctx, sample, 0, sample.size(), 0, rng);

  const double total =
      std::accumulate(importances_.begin(), importances_.end(), 0.0);
  if (total > 0.0) {
    for (double& v : importances_) v /= total;
  }
  return Status::OK();
}

int DecisionTreeClassifier::BuildNodeBinned(BinnedBuildContext& ctx,
                                            std::vector<WeightedRow>& sample,
                                            size_t begin, size_t end,
                                            int depth, Rng& rng) {
  const TreeParams& params = *ctx.params;
  const size_t C = ctx.num_classes;
  const std::vector<int>& label = *ctx.labels;
  auto class_weight = [&](size_t cls) {
    return params.class_weights.empty() ? 1.0 : params.class_weights[cls];
  };
  // `n` counts draws (what min_samples_*, the sweep and importances
  // read), `distinct` the sample entries the loops below visit.
  const size_t distinct = end - begin;
  size_t n = 0;
  std::vector<double> raw(C, 0.0);  // unweighted per-class counts
  for (size_t i = begin; i < end; ++i) {
    raw[static_cast<size_t>(label[sample[i].row])] += sample[i].weight;
    n += sample[i].weight;
  }
  std::vector<double> counts(C);  // weighted, as the exact path sees them
  double n_d = 0.0;
  for (size_t c = 0; c < C; ++c) {
    counts[c] = class_weight(c) * raw[c];
    n_d += counts[c];
  }
  const double node_gini = GiniFromCounts(counts, n_d);

  auto make_leaf = [&]() {
    Node leaf;
    leaf.probabilities.resize(C);
    for (size_t c = 0; c < C; ++c) {
      leaf.probabilities[c] = counts[c] / n_d;
    }
    nodes_.push_back(std::move(leaf));
    depth_ = std::max(depth_, depth);
    return static_cast<int>(nodes_.size() - 1);
  };

  if (depth >= params.max_depth || n < params.min_samples_split ||
      node_gini == 0.0 || n < 2 * params.min_samples_leaf) {
    return make_leaf();
  }

  // Identical feature-subset draw as the exact path — same rng stream,
  // same partial Fisher-Yates — so a fixed seed yields the same sequence
  // of candidate features at every node.
  const int d = static_cast<int>(num_features_);
  const int k = ctx.num_candidates;
  std::vector<int>& features = ctx.features;
  std::iota(features.begin(), features.end(), 0);
  for (int i = 0; i < k; ++i) {
    const int j =
        static_cast<int>(rng.UniformInt(i, static_cast<int64_t>(d) - 1));
    std::swap(features[static_cast<size_t>(i)],
              features[static_cast<size_t>(j)]);
  }

  int best_feature = -1;
  int best_bin = -1;
  const uint32_t* best_hist = nullptr;
  double best_decrease = params.min_impurity_decrease;

  std::vector<double> left_raw(C);
  for (int fi = 0; fi < k; ++fi) {
    const int f = features[static_cast<size_t>(fi)];
    const int num_bins = ctx.binned->num_bins(static_cast<size_t>(f));
    if (num_bins < 2) continue;  // globally constant feature
    uint32_t* h = ctx.hist.data() + static_cast<size_t>(fi) * ctx.slot_size;
    uint64_t* occupied =
        ctx.occupied.data() + static_cast<size_t>(fi) * kOccupiedWords;
    // A node with fewer distinct rows than bins marks the bins it
    // occupies and later sweeps and zeroes only those; a larger node
    // skips the per-row marking, which costs more than it saves there.
    const bool sparse = distinct < static_cast<size_t>(num_bins);
    const uint8_t* column = ctx.binned->column(static_cast<size_t>(f));
    if (sparse) {
      for (size_t i = begin; i < end; ++i) {
        const WeightedRow s = sample[i];
        const unsigned code = column[s.row];
        h[code * C + static_cast<size_t>(label[s.row])] += s.weight;
        occupied[code >> 6] |= uint64_t{1} << (code & 63);
      }
    } else {
      for (size_t i = begin; i < end; ++i) {
        const WeightedRow s = sample[i];
        h[static_cast<size_t>(column[s.row]) * C +
          static_cast<size_t>(label[s.row])] += s.weight;
      }
    }
    std::fill(left_raw.begin(), left_raw.end(), 0.0);
    size_t n_left = 0;
    // A cut is evaluated at the boundary after every bin that holds node
    // rows (an empty bin would duplicate the previous partition — the
    // histogram analogue of the exact path's equal-adjacent-values skip).
    // Returns false once no row is left to the right.
    auto sweep_bin = [&](int b) {
      double bin_total = 0.0;
      for (size_t c = 0; c < C; ++c) {
        const double rc = h[static_cast<size_t>(b) * C + c];
        left_raw[c] += rc;
        bin_total += rc;
      }
      if (bin_total == 0.0) return true;
      n_left += static_cast<size_t>(bin_total);
      const size_t n_right = n - n_left;
      if (n_right == 0) return false;  // all remaining bins are empty
      if (n_left < params.min_samples_leaf ||
          n_right < params.min_samples_leaf) {
        return true;
      }
      double left_weight = 0.0;
      for (size_t c = 0; c < C; ++c) {
        left_weight += class_weight(c) * left_raw[c];
      }
      const double right_weight = n_d - left_weight;
      double sum_sq_left = 0.0;
      double sum_sq_right = 0.0;
      for (size_t c = 0; c < C; ++c) {
        const double lc = class_weight(c) * left_raw[c];
        const double pl = lc / left_weight;
        sum_sq_left += pl * pl;
        const double pr = (counts[c] - lc) / right_weight;
        sum_sq_right += pr * pr;
      }
      const double gini_left = 1.0 - sum_sq_left;
      const double gini_right = 1.0 - sum_sq_right;
      const double weighted =
          (left_weight * gini_left + right_weight * gini_right) / n_d;
      const double decrease = node_gini - weighted;
      if (decrease > best_decrease) {
        best_decrease = decrease;
        best_feature = f;
        best_bin = b;
        best_hist = h;
      }
      return true;
    };
    if (sparse) {
      // Only the occupied bins, ascending: an empty bin changes no sweep
      // state, so this visits the same cuts as the full sweep.
      bool more = true;
      for (int w = 0; more && w < kOccupiedWords; ++w) {
        for (uint64_t bits = occupied[w]; more && bits != 0;
             bits &= bits - 1) {
          const int b = w * 64 + std::countr_zero(bits);
          more = b + 1 < num_bins && sweep_bin(b);
        }
      }
    } else {
      int b = 0;
      while (b + 1 < num_bins && sweep_bin(b)) ++b;
    }
  }

  // Refine the stored threshold toward the node-local gap midpoint: the
  // next in-node non-empty bin bounds the gap the exact search would
  // cut in the middle of.
  int next_bin = best_bin + 1;
  if (best_feature >= 0) {
    const int best_num_bins =
        ctx.binned->num_bins(static_cast<size_t>(best_feature));
    while (next_bin + 1 < best_num_bins) {
      uint32_t bin_total = 0;
      for (size_t c = 0; c < C; ++c) {
        bin_total += best_hist[static_cast<size_t>(next_bin) * C + c];
      }
      if (bin_total > 0) break;
      ++next_bin;
    }
  }

  // Zero what this node counted (the occupied bins of a sparse
  // candidate, every bin of a dense one) before any child reuses it.
  for (int fi = 0; fi < k; ++fi) {
    const int num_bins = ctx.binned->num_bins(
        static_cast<size_t>(features[static_cast<size_t>(fi)]));
    if (num_bins < 2) continue;
    uint32_t* h = ctx.hist.data() + static_cast<size_t>(fi) * ctx.slot_size;
    if (distinct >= static_cast<size_t>(num_bins)) {
      std::fill(h, h + static_cast<size_t>(num_bins) * C, 0u);
      continue;
    }
    uint64_t* occupied =
        ctx.occupied.data() + static_cast<size_t>(fi) * kOccupiedWords;
    for (int w = 0; w < kOccupiedWords; ++w) {
      for (uint64_t bits = occupied[w]; bits != 0; bits &= bits - 1) {
        const size_t b = static_cast<size_t>(w * 64 + std::countr_zero(bits));
        std::fill(h + b * C, h + (b + 1) * C, 0u);
      }
      occupied[w] = 0;
    }
  }

  if (best_feature < 0) {
    return make_leaf();
  }

  const uint8_t* best_column =
      ctx.binned->column(static_cast<size_t>(best_feature));
  // A row's draws share its codes, so they all go to one child.
  auto mid_it = std::partition(
      sample.begin() + static_cast<std::ptrdiff_t>(begin),
      sample.begin() + static_cast<std::ptrdiff_t>(end),
      [&](const WeightedRow& s) {
        return static_cast<int>(best_column[s.row]) <= best_bin;
      });
  const size_t mid = static_cast<size_t>(mid_it - sample.begin());
  if (mid == begin || mid == end) {
    return make_leaf();  // cannot happen when histogram counts are exact
  }

  importances_[static_cast<size_t>(best_feature)] +=
      (static_cast<double>(n) / static_cast<double>(ctx.total_samples)) *
      best_decrease;

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(node_index)].feature = best_feature;
  nodes_[static_cast<size_t>(node_index)].threshold =
      ctx.binned->refined_threshold(static_cast<size_t>(best_feature),
                                    best_bin, next_bin);

  const int left = BuildNodeBinned(ctx, sample, begin, mid, depth + 1, rng);
  const int right = BuildNodeBinned(ctx, sample, mid, end, depth + 1, rng);
  nodes_[static_cast<size_t>(node_index)].left = left;
  nodes_[static_cast<size_t>(node_index)].right = right;
  return node_index;
}

const std::vector<double>& DecisionTreeClassifier::LeafDistribution(
    const std::vector<double>& row) const {
  const Node* node = &nodes_[0];
  while (node->feature >= 0) {
    const double v = row[static_cast<size_t>(node->feature)];
    node = v <= node->threshold
               ? &nodes_[static_cast<size_t>(node->left)]
               : &nodes_[static_cast<size_t>(node->right)];
  }
  return node->probabilities;
}

std::vector<double> DecisionTreeClassifier::PredictProba(
    const std::vector<double>& row) const {
  return LeafDistribution(row);
}

int DecisionTreeClassifier::Predict(const std::vector<double>& row) const {
  const auto probs = PredictProba(row);
  return static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                          probs.begin());
}

Result<std::vector<int>> DecisionTreeClassifier::PredictBatch(
    const Dataset& data) const {
  if (!fitted()) {
    return Status::FailedPrecondition("tree is not fitted");
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


namespace {

std::string FullPrecision(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return std::string(buf);
}

}  // namespace

std::string DecisionTreeClassifier::Serialize() const {
  std::string out = "tree " + std::to_string(num_classes_) + " " +
                    std::to_string(num_features_) + " " +
                    std::to_string(depth_) + " " +
                    std::to_string(nodes_.size()) + "\n";
  for (const Node& node : nodes_) {
    out += std::to_string(node.feature) + " " +
           FullPrecision(node.threshold) + " " + std::to_string(node.left) +
           " " + std::to_string(node.right);
    out.append(" ").append(std::to_string(node.probabilities.size()));
    for (double p : node.probabilities) {
      out.append(" ").append(FullPrecision(p));
    }
    out += "\n";
  }
  out += "importances";
  for (double v : importances_) out.append(" ").append(FullPrecision(v));
  out += "\n";
  return out;
}

}  // namespace cloudsurv::ml
