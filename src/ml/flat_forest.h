#ifndef CLOUDSURV_ML_FLAT_FOREST_H_
#define CLOUDSURV_ML_FLAT_FOREST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"

namespace cloudsurv::artifact {
class ArtifactBuffer;
class ArtifactReader;
class ArtifactWriter;
}  // namespace cloudsurv::artifact

namespace cloudsurv::ml {

namespace flat_internal {

/// Contiguous, read-mostly storage that either owns its elements
/// (vector-backed — the Compile() path) or aliases external memory
/// without copying (the artifact mmap path — FlatForest::FromView).
/// Copying an owning column deep-copies; copying a view copies the
/// alias, which is safe because FlatForest carries a shared handle to
/// the backing bytes alongside its view columns.
template <typename T>
class Column {
 public:
  Column() = default;
  Column(const Column& other) { CopyFrom(other); }
  Column& operator=(const Column& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Column(Column&& other) noexcept { MoveFrom(std::move(other)); }
  Column& operator=(Column&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  /// Takes ownership of `values`.
  void Adopt(std::vector<T> values) {
    owned_ = std::move(values);
    data_ = owned_.data();
    size_ = owned_.size();
    owns_ = true;
  }

  /// Aliases `[data, data + size)`; the caller guarantees the bytes
  /// outlive every copy of this column.
  void BindView(const T* data, size_t size) {
    owned_.clear();
    owned_.shrink_to_fit();
    data_ = data;
    size_ = size;
    owns_ = false;
  }

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// False when this column aliases artifact-backed memory.
  bool owns() const { return owns_; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }

 private:
  void CopyFrom(const Column& other) {
    owns_ = other.owns_;
    if (other.owns_) {
      owned_ = other.owned_;
      data_ = owned_.data();
      size_ = owned_.size();
    } else {
      owned_.clear();
      owned_.shrink_to_fit();
      data_ = other.data_;
      size_ = other.size_;
    }
  }
  void MoveFrom(Column&& other) {
    owns_ = other.owns_;
    if (other.owns_) {
      // A vector move transfers the heap buffer, so the element
      // address is stable across the move.
      owned_ = std::move(other.owned_);
      data_ = owned_.data();
      size_ = owned_.size();
    } else {
      owned_.clear();
      owned_.shrink_to_fit();
      data_ = other.data_;
      size_ = other.size_;
    }
    other.owned_.clear();
    other.data_ = nullptr;
    other.size_ = 0;
    other.owns_ = true;
  }

  std::vector<T> owned_;
  const T* data_ = nullptr;
  size_t size_ = 0;
  bool owns_ = true;  ///< True (vacuously) in the default empty state.
};

}  // namespace flat_internal

/// Compiled, immutable inference representation of a trained tree
/// ensemble — the serving-path counterpart of the training-oriented
/// `DecisionTreeClassifier`/`GradientBoostedTreesClassifier` node
/// structs (which keep a heap-allocated probability vector per node and
/// therefore pay a cache miss per node hop).
///
/// Layout: struct-of-arrays node storage. All trees are packed
/// back-to-back into contiguous `feature`/`threshold`/`left`/`right`
/// arrays (children are absolute node ids, `feature == -1` marks a
/// leaf) with `tree_offsets` giving each tree's root; leaf payloads
/// (class distributions, or scalar leaf weights for boosted trees)
/// live in one dense `leaf_values` matrix indexed by a per-leaf id.
///
/// Batch scoring iterates rows x trees in cache-sized row blocks (all
/// trees stay hot while a block's rows stream through) and can fan
/// independent blocks out over a `common::ThreadPool`. Within a block
/// one portable walk runs trees outer, rows inner. Compile()
/// additionally stores each tree's nodes in breadth-first order so a
/// tree's hot first levels occupy adjacent cache lines, and autotunes
/// the default block size from the forest shape and the L2 size.
/// Per-row accumulation order is tree 0..T-1 with the same summation
/// the legacy path uses, so results are bit-identical at any block size
/// and thread count.
///
/// A FlatForest is immutable after Compile() returns; concurrent reads
/// from any number of threads are safe.
class FlatForest {
 public:
  /// Batch traversal knobs. Defaults favour an L1/L2-resident block of
  /// rows sized per compiled forest; see docs/inference.md.
  struct BatchOptions {
    /// Rows per traversal block. 0 (default) picks the per-forest
    /// autotuned size (`tuned_block_rows()`, derived from the forest's
    /// hot-node footprint vs. the L2 cache); any explicit value >= 1
    /// overrides it.
    size_t block_rows = 0;
    /// When set, independent blocks are scored as pool tasks. The
    /// caller must not be running *inside* a task of the same bounded
    /// pool (nested submission can deadlock on the queue bound).
    ThreadPool* pool = nullptr;
  };

  FlatForest() = default;

  /// Compiles a fitted random forest. Fails on an unfitted forest.
  static Result<FlatForest> Compile(const RandomForestClassifier& forest);

  /// Compiles a fitted gradient-boosted ensemble (scalar leaves,
  /// logit accumulation seeded with the base score).
  static Result<FlatForest> Compile(
      const GradientBoostedTreesClassifier& gbdt);

  // --- Binary model artifacts (src/artifact/, CSRV container) --------

  /// Serializes the compiled arrays into `writer` as one CSRV section
  /// per SoA array, tagged with `slot` as the section index (0 for a
  /// standalone forest; a LongevityService snapshot writes one forest
  /// per model slot). Byte-exact: FromView on the written artifact
  /// reproduces this forest's predictions bit for bit.
  Status WriteTo(artifact::ArtifactWriter& writer, uint32_t slot = 0) const;

  /// Binds a FlatForest directly onto the arrays inside a validated
  /// artifact — the zero-copy startup path. No array is copied: every
  /// column aliases the reader's (typically mmap'ed) backing bytes,
  /// and the forest retains shared ownership of that backing, so the
  /// mapping stays alive for as long as any copy of the forest does.
  /// Runs SelfCheck() before returning, so a structurally corrupt
  /// artifact that slipped past the checksums is still rejected.
  static Result<FlatForest> FromView(const artifact::ArtifactReader& reader,
                                     uint32_t slot = 0);

  /// True when the node arrays alias artifact backing bytes rather
  /// than owned vectors (i.e. this forest came from FromView).
  bool zero_copy() const { return backing_ != nullptr; }

  bool compiled() const { return !tree_offsets_.empty(); }
  /// True for a classifier ensemble (leaf class distributions); false
  /// for a boosted regressor (scalar logit leaves).
  bool is_classifier() const { return num_classes_ > 0; }

  /// Rows-per-block the compiler picked for this forest (used whenever
  /// BatchOptions::block_rows is 0): sized so one block of double rows
  /// plus accumulators shares the L2 cache with the forest's hot top
  /// levels. Always in [64, 8192] and a multiple of 8.
  size_t tuned_block_rows() const { return tuned_block_rows_; }

  /// True when every tree's nodes are stored root-first in
  /// breadth-first order (Compile() emits this layout so the hot first
  /// levels of a tree occupy adjacent cache lines). Artifacts written
  /// before the BFS layout load fine — node order is plain data — so
  /// FromView forests may legitimately return false here.
  bool nodes_breadth_first() const;

  size_t num_trees() const {
    return tree_offsets_.empty() ? 0 : tree_offsets_.size() - 1;
  }
  size_t num_nodes() const { return feature_.size(); }
  size_t num_leaves() const {
    return leaf_dim_ == 0 ? 0 : leaf_values_.size() / leaf_dim_;
  }
  int num_classes() const { return num_classes_; }
  size_t num_features() const { return num_features_; }

  /// Total bytes of the compiled arrays (layout cost accounting).
  size_t memory_bytes() const;

  /// Verifies structural invariants (offset monotonicity, child and
  /// leaf references in range). Cheap; tests and Compile() debug paths
  /// use it.
  Status SelfCheck() const;

  // --- Single-row scoring (bit-identical to the legacy per-row path) -

  /// Classifier: averaged class distribution into `out` (resized to
  /// num_classes). Regressor: out = {sigmoid(logit)}.
  void PredictProbaInto(const std::vector<double>& row,
                        std::vector<double>& out) const;

  /// Convenience copy of PredictProbaInto.
  std::vector<double> PredictProba(const std::vector<double>& row) const;

  /// Positive-class probability: classifier -> averaged P[class 1]
  /// (requires a binary ensemble), regressor -> sigmoid(logit). This is
  /// the quantity `LongevityService::Assess` serves.
  double PredictPositive(const std::vector<double>& row) const;

  // --- Blocked batch scoring -----------------------------------------

  /// Scores `n` rows given as a contiguous row-major matrix
  /// (`rows[i * num_features + f]`, finite values). `out` must hold
  /// `n * out_dim()` doubles: per row the averaged class distribution
  /// (classifier) or the single sigmoid probability (regressor).
  Status PredictProbaBatch(const double* rows, size_t n, double* out,
                           const BatchOptions& options) const;
  Status PredictProbaBatch(const double* rows, size_t n, double* out) const {
    return PredictProbaBatch(rows, n, out, BatchOptions());
  }

  /// Positive-class probability per dataset row; bit-identical to
  /// `RandomForestClassifier::PredictPositiveProba` /
  /// `GradientBoostedTreesClassifier::PredictPositiveProba`.
  Result<std::vector<double>> PredictPositiveProbaBatch(
      const Dataset& data, const BatchOptions& options) const;
  Result<std::vector<double>> PredictPositiveProbaBatch(
      const Dataset& data) const {
    return PredictPositiveProbaBatch(data, BatchOptions());
  }

  /// Positive-class probability for externally assembled rows (the
  /// serving path groups feature rows per model slot and scores them
  /// here). Every row must have num_features values.
  Result<std::vector<double>> PredictPositiveProbaRows(
      const std::vector<std::vector<double>>& rows,
      const BatchOptions& options) const;
  Result<std::vector<double>> PredictPositiveProbaRows(
      const std::vector<std::vector<double>>& rows) const {
    return PredictPositiveProbaRows(rows, BatchOptions());
  }

  /// argmax class per dataset row (classifier; probability > 0.5 for a
  /// regressor); bit-identical to the legacy PredictBatch.
  Result<std::vector<int>> PredictBatch(const Dataset& data,
                                        const BatchOptions& options) const;
  Result<std::vector<int>> PredictBatch(const Dataset& data) const {
    return PredictBatch(data, BatchOptions());
  }

  /// Doubles per row that PredictProbaBatch writes (num_classes for a
  /// classifier, 1 for a regressor).
  size_t out_dim() const { return leaf_dim_ == 0 ? 0 : out_dim_; }

 private:
  /// Scores one block of rows addressed through per-row pointers.
  /// `packed` is the reusable row-block buffer of one task, resized as
  /// needed.
  void ScoreBlock(const double* const* rows, size_t n, double* out,
                  std::vector<double>& packed) const;

  /// Shared driver: blocks `row_ptrs` and fans the blocks out.
  Status ScorePtrs(const double* const* row_ptrs, size_t n, double* out,
                   const BatchOptions& options) const;

  /// Derives `tuned_block_rows_` from the forest shape and the machine
  /// L2 size. Runs at the end of Compile() and FromView().
  void AutotuneBlockRows();

  template <typename T>
  using Column = flat_internal::Column<T>;

  int num_classes_ = 0;     ///< 0 for a boosted regressor.
  size_t num_features_ = 0;
  size_t leaf_dim_ = 0;     ///< num_classes, or 1 for a regressor.
  size_t out_dim_ = 0;      ///< num_classes, or 1 for a regressor.
  double base_score_ = 0.0; ///< Regressor accumulator seed.

  // SoA node storage; index = absolute node id. Owned after Compile(),
  // views into an artifact's bytes after FromView().
  Column<int32_t> feature_;    ///< -1 marks a leaf.
  Column<double> threshold_;
  Column<int32_t> left_;
  Column<int32_t> right_;
  Column<int32_t> leaf_index_; ///< Leaves: row into leaf_values_.
  Column<double> leaf_values_; ///< num_leaves x leaf_dim_, dense.
  Column<int32_t> tree_offsets_; ///< Tree t = [offsets[t], offsets[t+1]).

  /// Rows per block when BatchOptions::block_rows is 0 (autotuned).
  size_t tuned_block_rows_ = 512;

  /// Pins the mapped/loaded artifact bytes the view columns alias;
  /// nullptr for a Compile()d forest.
  std::shared_ptr<const artifact::ArtifactBuffer> backing_;
};

}  // namespace cloudsurv::ml

#endif  // CLOUDSURV_ML_FLAT_FOREST_H_
