#ifndef CLOUDSURV_ML_FLAT_FOREST_H_
#define CLOUDSURV_ML_FLAT_FOREST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "artifact/format.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "ml/dataset.h"
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

/// Compiled, immutable inference representation of a trained binary
/// random forest — the serving-path counterpart of the training-oriented
/// `DecisionTreeClassifier` node structs (which keep a heap-allocated
/// probability vector per node and therefore pay a cache miss per node
/// hop).
///
/// Layout: one array of 16-byte nodes `{value, feature, left}`
/// (`artifact::ForestNode`) holding every tree back to back, each tree
/// root-first in breadth-first order, plus one `{root, depth}` entry per
/// tree. A split keeps its threshold in `value` and its children at
/// `left` and `left + 1`; a leaf keeps its P(long) in `value`, points
/// `left` at itself and reads feature `num_features`, a column the walk
/// fills with -inf, so `x <= value` holds and the leaf loops on itself.
/// A walk therefore steps exactly `depth` times with no leaf test.
///
/// One walk serves every caller: it keeps eight (tree, row) pairs in
/// flight, enumerated tree-major, so a single row walks eight trees at a
/// time, a large block walks eight rows of one tree, and a small block
/// walks rows x trees. Batch scoring iterates cache-sized row blocks and
/// can fan independent blocks out over a `common::ThreadPool`. Per row
/// the leaf values are added in tree order 0..T-1 with plain double adds
/// and divided by T, so every score is bit-identical to
/// `RandomForestClassifier::PredictProba(row)[1]` at any block size and
/// thread count.
///
/// A FlatForest is immutable after Compile() returns; concurrent reads
/// from any number of threads are safe.
class FlatForest {
 public:
  using Node = artifact::ForestNode;
  using Tree = artifact::ForestTree;

  /// Rows per batch traversal block. A packed block of 2,048 rows of
  /// 30 features is 0.5 MiB, so it shares even a 1 MiB L2 with the
  /// trees' hot top levels; larger blocks evict the nodes the walk
  /// reuses (see docs/inference.md). A multiple of 8, so each block's
  /// accumulators start on a cache line of an aligned output buffer
  /// and pooled blocks never share one.
  static constexpr size_t kBlockRows = 2048;

  /// Batch traversal knobs; see docs/inference.md.
  struct BatchOptions {
    /// When set, independent blocks are scored as pool tasks. The
    /// caller must not be running *inside* a task of the same bounded
    /// pool (nested submission can deadlock on the queue bound).
    ThreadPool* pool = nullptr;
  };

  FlatForest() = default;

  /// Compiles a fitted two-class random forest. Fails on an unfitted
  /// forest and on any other class count.
  static Result<FlatForest> Compile(const RandomForestClassifier& forest);

  // --- Binary model artifacts (src/artifact/, CSRV container) --------

  /// Serializes the forest into `writer` as a meta, a node and a tree
  /// section, tagged with `slot` as the section index (0 for a
  /// standalone forest; a LongevityService snapshot writes one forest
  /// per model slot). Byte-exact: FromView on the written artifact
  /// reproduces this forest's predictions bit for bit.
  Status WriteTo(artifact::ArtifactWriter& writer, uint32_t slot = 0) const;

  /// Binds a FlatForest directly onto the node and tree sections inside
  /// a validated artifact — the zero-copy startup path. Nothing is
  /// copied or converted: both arrays alias the reader's (typically
  /// mmap'ed) backing bytes, and the forest retains shared ownership of
  /// that backing, so the mapping stays alive for as long as any copy
  /// of the forest does. Runs SelfCheck() before returning, so a
  /// structurally corrupt artifact that slipped past the checksums is
  /// still rejected.
  static Result<FlatForest> FromView(const artifact::ArtifactReader& reader,
                                     uint32_t slot = 0);

  /// True when the arrays alias artifact backing bytes rather than
  /// owned vectors (i.e. this forest came from FromView).
  bool zero_copy() const { return backing_ != nullptr; }

  bool compiled() const { return !trees_.empty(); }

  size_t num_trees() const { return trees_.size(); }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_features() const { return num_features_; }

  /// Total bytes of the node and tree arrays (layout cost accounting).
  size_t memory_bytes() const {
    return nodes_.size() * sizeof(Node) + trees_.size() * sizeof(Tree);
  }

  /// Verifies in one pass over the nodes that no walk can leave its
  /// tree: every tree range is non-empty and in bounds, every split
  /// reads a feature below num_features and has both children inside
  /// its tree after it, every leaf loops on itself with a non-NaN
  /// value, and every stored depth equals the tree's true depth.
  Status SelfCheck() const;

  // --- Scoring --------------------------------------------------------

  /// P(long) of one row (num_features values): the averaged positive-
  /// class leaf probability. This is the quantity
  /// `LongevityService::Assess` serves.
  double PredictPositive(const std::vector<double>& row) const;

  /// P(long) of `n` rows given as a contiguous row-major matrix
  /// (`rows[i * num_features + f]`) into `out[0..n)`.
  Status PredictPositiveBatch(const double* rows, size_t n, double* out,
                              const BatchOptions& options) const;
  Status PredictPositiveBatch(const double* rows, size_t n,
                              double* out) const {
    return PredictPositiveBatch(rows, n, out, BatchOptions());
  }

  /// P(long) for the view `data[rows]` (no subset copy; indices may
  /// repeat and come in any order), out[i] for row rows[i]. An index
  /// past the dataset is OutOfRange, a width other than num_features()
  /// InvalidArgument.
  Result<std::vector<double>> PredictPositiveProbaBatch(
      const Dataset& data, const std::vector<size_t>& rows,
      const BatchOptions& options) const;
  Result<std::vector<double>> PredictPositiveProbaBatch(
      const Dataset& data, const std::vector<size_t>& rows) const {
    return PredictPositiveProbaBatch(data, rows, BatchOptions());
  }

 private:
  /// Scores one block of rows addressed through per-row pointers.
  /// `packed` is the reusable row-block buffer of one task.
  void ScoreBlock(const double* const* rows, size_t n, double* out,
                  std::vector<double>& packed) const;

  /// Shared driver: blocks `row_ptrs` and fans the blocks out.
  Status ScorePtrs(const double* const* row_ptrs, size_t n, double* out,
                   const BatchOptions& options) const;

  template <typename T>
  using Column = flat_internal::Column<T>;

  size_t num_features_ = 0;
  /// Every tree's nodes, back to back. Owned after Compile(), a view
  /// into an artifact's bytes after FromView().
  Column<Node> nodes_;
  /// Tree t spans nodes [trees_[t].root, trees_[t + 1].root), the last
  /// one up to num_nodes().
  Column<Tree> trees_;

  /// Pins the mapped/loaded artifact bytes the view columns alias;
  /// nullptr for a Compile()d forest.
  std::shared_ptr<const artifact::ArtifactBuffer> backing_;
};

}  // namespace cloudsurv::ml

#endif  // CLOUDSURV_ML_FLAT_FOREST_H_
