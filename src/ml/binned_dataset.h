#ifndef CLOUDSURV_ML_BINNED_DATASET_H_
#define CLOUDSURV_ML_BINNED_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "ml/dataset.h"

namespace cloudsurv::ml {

/// Which node-split search the tree trainers run.
enum class SplitAlgorithm {
  /// Re-sort every candidate feature at every node (O(n log n) per
  /// feature per node). Exhaustive over all distinct thresholds.
  kExact,
  /// LightGBM-style histogram search over pre-binned feature codes
  /// (O(n + bins) per feature per node). The classifier tree counts only
  /// the node's candidate features; GBDT, which searches every feature,
  /// uses the parent-minus-sibling subtraction trick. The default.
  kHistogram,
};

/// A quantile-binned, column-major view of a training matrix, built once
/// per training set and shared read-only by every tree of an ensemble.
///
/// Each feature is discretized into at most `max_bins` (<= 256) bins so
/// a row's feature value is a single `uint8_t` code. Bin boundaries are
/// midpoints between adjacent distinct values: when a feature has fewer
/// distinct values than bins, every distinct value gets its own bin and
/// the histogram split search sees exactly the candidate thresholds the
/// exact search would. With more distinct values, boundaries are placed
/// at (approximately) evenly spaced ranks, so every bin is non-empty on
/// the rows it was built from.
///
/// Codes satisfy: value <= threshold(f, b)  <=>  code(row, f) <= b,
/// so a split chosen on codes converts to a real-valued threshold that
/// routes the training rows identically at predict time.
class BinnedDataset {
 public:
  static constexpr int kMaxBins = 256;

  BinnedDataset() = default;

  /// Bins every row of `data`.
  static Result<BinnedDataset> FromDataset(const Dataset& data,
                                           int max_bins = kMaxBins);

  /// Bins only the given rows of `data` (row i of the binned view is
  /// data row `rows[i]`); bin edges come from the subset's distribution,
  /// matching what training on a materialized subset would see.
  static Result<BinnedDataset> FromDatasetRows(const Dataset& data,
                                               const std::vector<size_t>& rows,
                                               int max_bins = kMaxBins);

  /// Bins an arbitrary matrix exposed through an accessor; used by the
  /// survival forest whose covariates are not ml::Dataset rows.
  static Result<BinnedDataset> FromMatrix(
      size_t num_rows, size_t num_features,
      const std::function<double(size_t row, size_t col)>& value_at,
      int max_bins = kMaxBins);

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return boundaries_.size(); }
  bool empty() const { return num_rows_ == 0; }

  /// Number of bins for feature `f` (boundaries(f).size() + 1).
  int num_bins(size_t f) const {
    return static_cast<int>(boundaries_[f].size()) + 1;
  }

  /// True when feature `f` is constant on the binned rows.
  bool constant(size_t f) const { return boundaries_[f].empty(); }

  /// Column-major code access: column(f)[row].
  const uint8_t* column(size_t f) const {
    return codes_.data() + f * num_rows_;
  }
  uint8_t code(size_t row, size_t f) const { return column(f)[row]; }

  /// Real-valued split threshold of the boundary after bin `b`
  /// (valid for b in [0, num_bins(f) - 2]): going left iff
  /// value <= threshold(f, b) is equivalent to code <= b.
  double threshold(size_t f, int b) const {
    return boundaries_[f][static_cast<size_t>(b)];
  }

  /// Threshold for a cut after bin `b` when the next bin holding node
  /// rows is `next_b` (> b): the midpoint of the empty-bin gap, which
  /// is closer to the exact search's node-local midpoint than the raw
  /// boundary after `b`. Values in bins <= b still satisfy
  /// value <= result and values in bins >= next_b still exceed it, so
  /// training rows route identically; only unseen rows landing inside
  /// the gap are affected.
  double refined_threshold(size_t f, int b, int next_b) const {
    const double lo = threshold(f, b);
    if (next_b <= b + 1) return lo;
    const double hi = threshold(f, next_b - 1);
    return lo + 0.5 * (hi - lo);
  }

  /// Total bytes held by codes and edge tables (for the benchmark).
  size_t memory_bytes() const;

 private:
  static Result<BinnedDataset> Build(
      size_t num_rows, size_t num_features,
      const std::function<double(size_t row, size_t col)>& value_at,
      int max_bins);

  size_t num_rows_ = 0;
  /// Per feature: ascending upper-inclusive bin edges (size num_bins-1).
  std::vector<std::vector<double>> boundaries_;
  /// Column-major bin codes: codes_[f * num_rows_ + row].
  std::vector<uint8_t> codes_;
};

}  // namespace cloudsurv::ml

#endif  // CLOUDSURV_ML_BINNED_DATASET_H_
