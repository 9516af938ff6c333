#include "ml/flat_forest.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "artifact/reader.h"
#include "artifact/writer.h"
#include "obs/metrics.h"

namespace cloudsurv::ml {

namespace {

/// Vector staging area for the SoA node arrays while a forest is being
/// compiled; adopted into the FlatForest columns once complete.
struct NodeArrays {
  std::vector<int32_t> feature;
  std::vector<double> threshold;
  std::vector<int32_t> left;
  std::vector<int32_t> right;
  std::vector<int32_t> leaf_index;
  std::vector<double> leaf_values;
  std::vector<int32_t> tree_offsets;

  void Reserve(size_t total_nodes, size_t trees) {
    feature.reserve(total_nodes);
    threshold.reserve(total_nodes);
    left.reserve(total_nodes);
    right.reserve(total_nodes);
    leaf_index.reserve(total_nodes);
    tree_offsets.reserve(trees + 1);
    tree_offsets.push_back(0);
  }
};

// Must match the expression in gbdt.cc exactly — bit-identity of the
// regressor path depends on computing the same double.
double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Breadth-first visit order of one tree's local node ids: root first,
/// then each level left to right, so the hot top levels land on
/// adjacent cache lines after packing. `children(i)` returns the local
/// {left, right} ids of a split node, {-1, -1} for a leaf. Falls back
/// to the identity order if the links do not reach every node exactly
/// once (a malformed tree — Compile()'s per-node validation rejects it
/// anyway, but the reorder must never drop nodes).
template <typename Children>
std::vector<int32_t> BreadthFirstOrder(size_t nodes, Children&& children) {
  std::vector<int32_t> order;
  order.reserve(nodes);
  std::vector<char> seen(nodes, 0);
  order.push_back(0);
  seen[0] = 1;
  for (size_t head = 0; head < order.size(); ++head) {
    const auto [left, right] = children(static_cast<size_t>(order[head]));
    for (const int32_t c : {left, right}) {
      if (c >= 0 && static_cast<size_t>(c) < nodes && !seen[c]) {
        seen[static_cast<size_t>(c)] = 1;
        order.push_back(c);
      }
    }
  }
  if (order.size() != nodes) {
    order.resize(nodes);
    for (size_t i = 0; i < nodes; ++i) order[i] = static_cast<int32_t>(i);
  }
  return order;
}

obs::Histogram* CompileHistogram() {
  static obs::Histogram* h = obs::Registry::Default().GetHistogram(
      "cloudsurv_inference_compile_ms",
      "FlatForest compilation time (SoA layout)", "ms");
  return h;
}

obs::Counter* RowsTotal() {
  static obs::Counter* c = obs::Registry::Default().GetCounter(
      "cloudsurv_inference_rows_total",
      "Rows scored through the flat inference engine", "rows");
  return c;
}

obs::Histogram* BatchLatency() {
  static obs::Histogram* h = obs::Registry::Default().GetHistogram(
      "cloudsurv_inference_batch_latency_us",
      "Wall time of one FlatForest batch-predict call", "us");
  return h;
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Raw pointers into a compiled forest's SoA arrays for the block walk.
struct ForestView {
  const int32_t* feature = nullptr;    ///< -1 marks a leaf.
  const double* threshold = nullptr;
  const int32_t* left = nullptr;       ///< Absolute node ids.
  const int32_t* right = nullptr;
  const int32_t* leaf_index = nullptr; ///< Row into leaf_values.
  const double* leaf_values = nullptr; ///< num_leaves x leaf_dim.
  const int32_t* tree_offsets = nullptr;
  size_t num_trees = 0;
  size_t num_features = 0;
  size_t leaf_dim = 0;
  size_t out_dim = 0;
};

/// Accumulates raw leaf sums for `n` packed rows
/// (`rows[i * num_features + f]`) into `out` (`n * out_dim` doubles,
/// pre-seeded by the caller). The caller finalizes (divide/sigmoid).
void ScalarTraverse(const ForestView& f, const double* rows, size_t n,
                    double* out) {
  // Trees outer, rows inner: the node arrays stream once per block
  // while the block's rows and accumulators stay cache-resident. Per
  // row the leaf sums accumulate in tree order 0..T-1 with plain double
  // adds — the exact summation sequence of the legacy per-row path.
  for (size_t t = 0; t < f.num_trees; ++t) {
    const int32_t root = f.tree_offsets[t];
    for (size_t i = 0; i < n; ++i) {
      const double* row = rows + i * f.num_features;
      int32_t node = root;
      int32_t feat = f.feature[static_cast<size_t>(node)];
      while (feat >= 0) {
        node = row[static_cast<size_t>(feat)] <=
                       f.threshold[static_cast<size_t>(node)]
                   ? f.left[static_cast<size_t>(node)]
                   : f.right[static_cast<size_t>(node)];
        feat = f.feature[static_cast<size_t>(node)];
      }
      const double* leaf =
          f.leaf_values +
          static_cast<size_t>(f.leaf_index[static_cast<size_t>(node)]) *
              f.leaf_dim;
      double* acc = out + i * f.out_dim;
      for (size_t c = 0; c < f.leaf_dim; ++c) acc[c] += leaf[c];
    }
  }
}

}  // namespace

Result<FlatForest> FlatForest::Compile(const RandomForestClassifier& forest) {
  const auto start = std::chrono::steady_clock::now();
  if (!forest.fitted()) {
    return Status::FailedPrecondition("cannot compile an unfitted forest");
  }
  FlatForest flat;
  flat.num_classes_ = forest.num_classes();
  if (flat.num_classes_ <= 0) {
    return Status::Internal("fitted forest reports no classes");
  }
  flat.leaf_dim_ = static_cast<size_t>(flat.num_classes_);
  flat.out_dim_ = flat.leaf_dim_;

  const auto& trees = forest.trees();
  size_t total_nodes = 0;
  for (const auto& tree : trees) total_nodes += tree.num_nodes();
  if (total_nodes >
      static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return Status::OutOfRange("forest too large for int32 node ids");
  }
  NodeArrays arrays;
  arrays.Reserve(total_nodes, trees.size());

  flat.num_features_ = trees.empty() ? 0 : trees.front().num_features();
  for (size_t t = 0; t < trees.size(); ++t) {
    const auto& tree = trees[t];
    if (tree.num_nodes() == 0) {
      return Status::Internal("fitted forest contains an empty tree");
    }
    if (tree.num_features() != flat.num_features_) {
      return Status::Internal("trees disagree on feature count");
    }
    const int32_t offset = static_cast<int32_t>(arrays.feature.size());
    // Emit the tree's nodes in breadth-first order (root first, levels
    // left to right): the first few levels — the ones every row
    // touches — pack onto adjacent cache lines. `pos` maps a training
    // node id to its packed local slot for child rewriting.
    const auto order =
        BreadthFirstOrder(tree.num_nodes(), [&tree](size_t i) {
          const auto node = tree.node_view(i);
          return node.feature < 0 ? std::pair<int32_t, int32_t>(-1, -1)
                                  : std::pair<int32_t, int32_t>(node.left,
                                                                node.right);
        });
    std::vector<int32_t> pos(tree.num_nodes());
    for (size_t k = 0; k < order.size(); ++k) {
      pos[static_cast<size_t>(order[k])] = static_cast<int32_t>(k);
    }
    for (size_t k = 0; k < tree.num_nodes(); ++k) {
      const auto node = tree.node_view(static_cast<size_t>(order[k]));
      arrays.feature.push_back(node.feature < 0 ? -1 : node.feature);
      arrays.threshold.push_back(node.threshold);
      if (node.feature < 0) {
        // Leaf: stash the class distribution densely.
        if (node.probabilities->size() != flat.leaf_dim_) {
          return Status::Internal("leaf distribution size mismatch");
        }
        arrays.left.push_back(-1);
        arrays.right.push_back(-1);
        arrays.leaf_index.push_back(
            static_cast<int32_t>(arrays.leaf_values.size() / flat.leaf_dim_));
        arrays.leaf_values.insert(arrays.leaf_values.end(),
                                  node.probabilities->begin(),
                                  node.probabilities->end());
      } else {
        if (node.left < 0 || node.right < 0 ||
            static_cast<size_t>(node.left) >= tree.num_nodes() ||
            static_cast<size_t>(node.right) >= tree.num_nodes()) {
          return Status::Internal("split node with invalid children");
        }
        arrays.left.push_back(offset + pos[static_cast<size_t>(node.left)]);
        arrays.right.push_back(offset + pos[static_cast<size_t>(node.right)]);
        arrays.leaf_index.push_back(-1);
      }
    }
    arrays.tree_offsets.push_back(static_cast<int32_t>(arrays.feature.size()));
  }
  flat.feature_.Adopt(std::move(arrays.feature));
  flat.threshold_.Adopt(std::move(arrays.threshold));
  flat.left_.Adopt(std::move(arrays.left));
  flat.right_.Adopt(std::move(arrays.right));
  flat.leaf_index_.Adopt(std::move(arrays.leaf_index));
  flat.leaf_values_.Adopt(std::move(arrays.leaf_values));
  flat.tree_offsets_.Adopt(std::move(arrays.tree_offsets));
  flat.AutotuneBlockRows();
  CompileHistogram()->Observe(ElapsedMs(start));
  return flat;
}

Result<FlatForest> FlatForest::Compile(
    const GradientBoostedTreesClassifier& gbdt) {
  const auto start = std::chrono::steady_clock::now();
  if (!gbdt.fitted()) {
    return Status::FailedPrecondition("cannot compile an unfitted ensemble");
  }
  FlatForest flat;
  flat.num_classes_ = 0;  // Regressor: scalar logit leaves.
  flat.leaf_dim_ = 1;
  flat.out_dim_ = 1;
  flat.base_score_ = gbdt.base_score();
  flat.num_features_ = gbdt.num_features();

  size_t total_nodes = 0;
  for (size_t t = 0; t < gbdt.num_trees(); ++t) {
    total_nodes += gbdt.tree_nodes(t);
  }
  if (total_nodes >
      static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return Status::OutOfRange("ensemble too large for int32 node ids");
  }
  NodeArrays arrays;
  arrays.Reserve(total_nodes, gbdt.num_trees());

  for (size_t t = 0; t < gbdt.num_trees(); ++t) {
    const size_t nodes = gbdt.tree_nodes(t);
    if (nodes == 0) {
      return Status::Internal("fitted ensemble contains an empty tree");
    }
    const int32_t offset = static_cast<int32_t>(arrays.feature.size());
    // Breadth-first packing, as in the forest overload above.
    const auto order = BreadthFirstOrder(nodes, [&gbdt, t](size_t i) {
      const auto node = gbdt.node_view(t, i);
      return node.feature < 0
                 ? std::pair<int32_t, int32_t>(-1, -1)
                 : std::pair<int32_t, int32_t>(node.left, node.right);
    });
    std::vector<int32_t> pos(nodes);
    for (size_t k = 0; k < order.size(); ++k) {
      pos[static_cast<size_t>(order[k])] = static_cast<int32_t>(k);
    }
    for (size_t k = 0; k < nodes; ++k) {
      const auto node = gbdt.node_view(t, static_cast<size_t>(order[k]));
      arrays.feature.push_back(node.feature < 0 ? -1 : node.feature);
      arrays.threshold.push_back(node.threshold);
      if (node.feature < 0) {
        arrays.left.push_back(-1);
        arrays.right.push_back(-1);
        arrays.leaf_index.push_back(
            static_cast<int32_t>(arrays.leaf_values.size()));
        arrays.leaf_values.push_back(node.value);
      } else {
        if (node.left < 0 || node.right < 0 ||
            static_cast<size_t>(node.left) >= nodes ||
            static_cast<size_t>(node.right) >= nodes) {
          return Status::Internal("split node with invalid children");
        }
        arrays.left.push_back(offset + pos[static_cast<size_t>(node.left)]);
        arrays.right.push_back(offset + pos[static_cast<size_t>(node.right)]);
        arrays.leaf_index.push_back(-1);
      }
    }
    arrays.tree_offsets.push_back(static_cast<int32_t>(arrays.feature.size()));
  }
  flat.feature_.Adopt(std::move(arrays.feature));
  flat.threshold_.Adopt(std::move(arrays.threshold));
  flat.left_.Adopt(std::move(arrays.left));
  flat.right_.Adopt(std::move(arrays.right));
  flat.leaf_index_.Adopt(std::move(arrays.leaf_index));
  flat.leaf_values_.Adopt(std::move(arrays.leaf_values));
  flat.tree_offsets_.Adopt(std::move(arrays.tree_offsets));
  flat.AutotuneBlockRows();
  CompileHistogram()->Observe(ElapsedMs(start));
  return flat;
}

void FlatForest::AutotuneBlockRows() {
  // One traversal block wants (a) the hot top levels of every tree and
  // (b) the block's double rows + accumulators co-resident in L2; the
  // node arrays below the top levels stream regardless. Budget the
  // rows at L2 minus the hot-node footprint (first 6 levels = 63 nodes
  // per tree across the five SoA arrays), clamped to [64, 8192] and
  // rounded down to a multiple of 8 rows, so each block's accumulators
  // start on a cache line of an aligned output buffer and pooled blocks
  // never share one. Callers override via BatchOptions::block_rows != 0.
  long l2 = -1;
#if defined(_SC_LEVEL2_CACHE_SIZE)
  l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  const size_t l2_bytes = l2 > 0 ? static_cast<size_t>(l2) : (1u << 20);
  constexpr size_t kNodeStride =
      4 * sizeof(int32_t) + sizeof(double);  // feature/left/right/leafidx/thr
  constexpr size_t kHotNodesPerTree = 63;
  size_t hot_bytes = 0;
  for (size_t t = 0; t + 1 < tree_offsets_.size(); ++t) {
    const size_t tree_nodes =
        static_cast<size_t>(tree_offsets_[t + 1] - tree_offsets_[t]);
    hot_bytes += std::min(tree_nodes, kHotNodesPerTree) * kNodeStride;
  }
  const size_t row_bytes = (num_features_ + out_dim_) * sizeof(double);
  const size_t budget =
      l2_bytes > hot_bytes ? l2_bytes - hot_bytes : l2_bytes / 2;
  size_t rows = row_bytes == 0 ? 8192 : budget / row_bytes;
  rows = std::clamp<size_t>(rows, 64, 8192);
  rows -= rows % 8;
  tuned_block_rows_ = rows;
}

bool FlatForest::nodes_breadth_first() const {
  // A tree is in BFS order iff replaying a breadth-first walk from its
  // root visits exactly the sequential ids lo, lo+1, ..., hi-1.
  if (!compiled()) return false;
  for (size_t t = 0; t + 1 < tree_offsets_.size(); ++t) {
    const int32_t lo = tree_offsets_[t];
    const size_t nodes = static_cast<size_t>(tree_offsets_[t + 1] - lo);
    const auto order = BreadthFirstOrder(nodes, [this, lo](size_t i) {
      const size_t u = static_cast<size_t>(lo) + i;
      return feature_[u] < 0
                 ? std::pair<int32_t, int32_t>(-1, -1)
                 : std::pair<int32_t, int32_t>(left_[u] - lo, right_[u] - lo);
    });
    for (size_t k = 0; k < nodes; ++k) {
      if (order[k] != static_cast<int32_t>(k)) return false;
    }
  }
  return true;
}

size_t FlatForest::memory_bytes() const {
  return feature_.size() * sizeof(int32_t) +
         threshold_.size() * sizeof(double) +
         left_.size() * sizeof(int32_t) + right_.size() * sizeof(int32_t) +
         leaf_index_.size() * sizeof(int32_t) +
         leaf_values_.size() * sizeof(double) +
         tree_offsets_.size() * sizeof(int32_t);
}

Status FlatForest::SelfCheck() const {
  if (!compiled()) {
    return Status::FailedPrecondition("forest is not compiled");
  }
  const size_t nodes = feature_.size();
  if (threshold_.size() != nodes || left_.size() != nodes ||
      right_.size() != nodes || leaf_index_.size() != nodes) {
    return Status::Internal("SoA arrays disagree on node count");
  }
  if (tree_offsets_.front() != 0 ||
      static_cast<size_t>(tree_offsets_.back()) != nodes) {
    return Status::Internal("tree offsets do not span the node arrays");
  }
  if (leaf_dim_ == 0 || leaf_values_.size() % leaf_dim_ != 0) {
    return Status::Internal("leaf matrix not a multiple of leaf_dim");
  }
  const int32_t leaves = static_cast<int32_t>(num_leaves());
  for (size_t t = 0; t + 1 < tree_offsets_.size(); ++t) {
    const int32_t lo = tree_offsets_[t];
    const int32_t hi = tree_offsets_[t + 1];
    if (lo >= hi) return Status::Internal("empty or non-monotone tree range");
    for (int32_t i = lo; i < hi; ++i) {
      const size_t u = static_cast<size_t>(i);
      if (feature_[u] < 0) {
        if (leaf_index_[u] < 0 || leaf_index_[u] >= leaves) {
          return Status::Internal("leaf references an out-of-range row");
        }
        if (left_[u] != -1 || right_[u] != -1) {
          return Status::Internal("leaf with children");
        }
      } else {
        if (static_cast<size_t>(feature_[u]) >= num_features_) {
          return Status::Internal("split feature out of range");
        }
        if (left_[u] <= i || left_[u] >= hi || right_[u] <= i ||
            right_[u] >= hi) {
          return Status::Internal("child id escapes its tree range");
        }
        if (leaf_index_[u] != -1) {
          return Status::Internal("split node with a leaf row");
        }
      }
    }
  }
  return Status::OK();
}

Status FlatForest::WriteTo(artifact::ArtifactWriter& writer,
                           uint32_t slot) const {
  if (!compiled()) {
    return Status::FailedPrecondition(
        "cannot persist an uncompiled forest");
  }
  using artifact::SectionId;
  artifact::ForestMeta meta;
  std::memset(&meta, 0, sizeof(meta));
  meta.num_classes = num_classes_;
  meta.num_features = num_features_;
  meta.leaf_dim = leaf_dim_;
  meta.out_dim = out_dim_;
  meta.base_score = base_score_;
  writer.AddStruct(SectionId::kForestMeta, slot, meta);
  writer.AddArray(SectionId::kNodeFeature, slot, feature_.data(),
                  feature_.size());
  writer.AddArray(SectionId::kNodeThreshold, slot, threshold_.data(),
                  threshold_.size());
  writer.AddArray(SectionId::kNodeLeft, slot, left_.data(), left_.size());
  writer.AddArray(SectionId::kNodeRight, slot, right_.data(), right_.size());
  writer.AddArray(SectionId::kNodeLeafIndex, slot, leaf_index_.data(),
                  leaf_index_.size());
  writer.AddArray(SectionId::kLeafValues, slot, leaf_values_.data(),
                  leaf_values_.size());
  writer.AddArray(SectionId::kTreeOffsets, slot, tree_offsets_.data(),
                  tree_offsets_.size());
  return Status::OK();
}

Result<FlatForest> FlatForest::FromView(
    const artifact::ArtifactReader& reader, uint32_t slot) {
  using artifact::SectionId;
  CLOUDSURV_ASSIGN_OR_RETURN(
      const artifact::ForestMeta meta,
      reader.Struct<artifact::ForestMeta>(SectionId::kForestMeta, slot));

  FlatForest flat;
  flat.num_classes_ = meta.num_classes;
  flat.num_features_ = static_cast<size_t>(meta.num_features);
  flat.leaf_dim_ = static_cast<size_t>(meta.leaf_dim);
  flat.out_dim_ = static_cast<size_t>(meta.out_dim);
  flat.base_score_ = meta.base_score;
  const size_t expect_dim =
      flat.num_classes_ > 0 ? static_cast<size_t>(flat.num_classes_) : 1;
  if (meta.num_classes < 0 || flat.leaf_dim_ != expect_dim ||
      flat.out_dim_ != expect_dim) {
    return Status::InvalidArgument(
        "artifact forest metadata is inconsistent (classes/leaf_dim/"
        "out_dim)");
  }

  // Bind every column as an in-place view of the artifact bytes — the
  // zero-copy path. The reader validated bounds, alignment, and
  // checksums; structural validation below covers the rest.
  auto bind = [&](SectionId id, auto& column) -> Status {
    using T = std::decay_t<decltype(column[0])>;
    auto span = reader.Array<T>(id, slot);
    if (!span.ok()) return span.status();
    column.BindView(span->data, span->size);
    return Status::OK();
  };
  CLOUDSURV_RETURN_NOT_OK(bind(SectionId::kNodeFeature, flat.feature_));
  CLOUDSURV_RETURN_NOT_OK(bind(SectionId::kNodeThreshold, flat.threshold_));
  CLOUDSURV_RETURN_NOT_OK(bind(SectionId::kNodeLeft, flat.left_));
  CLOUDSURV_RETURN_NOT_OK(bind(SectionId::kNodeRight, flat.right_));
  CLOUDSURV_RETURN_NOT_OK(bind(SectionId::kNodeLeafIndex, flat.leaf_index_));
  CLOUDSURV_RETURN_NOT_OK(bind(SectionId::kLeafValues, flat.leaf_values_));
  CLOUDSURV_RETURN_NOT_OK(bind(SectionId::kTreeOffsets, flat.tree_offsets_));
  // Older files may also carry the reserved quantized-table sections
  // and ForestMeta flag bits (artifact/format.h); they are not read.

  if (flat.tree_offsets_.empty()) {
    return Status::InvalidArgument("artifact forest has no trees");
  }
  flat.backing_ = reader.backing();
  CLOUDSURV_RETURN_NOT_OK(flat.SelfCheck());
  // Derived (non-serialized) state: the autotuned block size for this
  // machine.
  flat.AutotuneBlockRows();
  return flat;
}

void FlatForest::ScoreBlock(const double* const* rows, size_t n, double* out,
                            std::vector<double>& packed) const {
  const size_t trees = num_trees();
  const size_t od = out_dim_;
  if (num_classes_ > 0) {
    std::fill(out, out + n * od, 0.0);
  } else {
    std::fill(out, out + n, base_score_);
  }

  // The walk consumes a packed row-major block. The dense-matrix entry
  // points hand over rows that are already contiguous — alias them;
  // otherwise (Dataset rows, the serving path's per-slot row vectors)
  // pack once into reusable scratch.
  // Packing copies row bytes verbatim, so it cannot perturb results.
  const double* block = rows[0];
  bool contiguous = true;
  for (size_t i = 1; i < n; ++i) {
    if (rows[i] != rows[0] + i * num_features_) {
      contiguous = false;
      break;
    }
  }
  if (!contiguous) {
    packed.resize(n * num_features_);
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(packed.data() + i * num_features_, rows[i],
                  num_features_ * sizeof(double));
    }
    block = packed.data();
  }
  ForestView view;
  view.feature = feature_.data();
  view.threshold = threshold_.data();
  view.left = left_.data();
  view.right = right_.data();
  view.leaf_index = leaf_index_.data();
  view.leaf_values = leaf_values_.data();
  view.tree_offsets = tree_offsets_.data();
  view.num_trees = trees;
  view.num_features = num_features_;
  view.leaf_dim = leaf_dim_;
  view.out_dim = od;
  ScalarTraverse(view, block, n, out);

  // Finalization mirrors the legacy per-row arithmetic exactly: divide
  // the class sums by the tree count, or squash the logit. Per row the
  // accumulation above ran in tree order 0..T-1 — the same double
  // summation sequence the per-row path performs — so results are
  // bit-identical at any block size or thread count.
  if (num_classes_ > 0) {
    const double t = static_cast<double>(trees);
    for (size_t i = 0; i < n * od; ++i) out[i] /= t;
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = Sigmoid(out[i]);
  }
}

Status FlatForest::ScorePtrs(const double* const* row_ptrs, size_t n,
                             double* out, const BatchOptions& options) const {
  if (!compiled()) {
    return Status::FailedPrecondition("forest is not compiled");
  }
  if (n == 0) return Status::OK();
  obs::ScopedTimer timer(BatchLatency());
  size_t block =
      options.block_rows == 0 ? tuned_block_rows_ : options.block_rows;
  if (block == 0) block = 1;
  const size_t num_blocks = (n + block - 1) / block;

  if (options.pool == nullptr || num_blocks <= 1) {
    std::vector<double> packed;
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t lo = b * block;
      const size_t hi = std::min(n, lo + block);
      ScoreBlock(row_ptrs + lo, hi - lo, out + lo * out_dim_, packed);
    }
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(num_blocks);
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t lo = b * block;
      const size_t hi = std::min(n, lo + block);
      futures.push_back(options.pool->Submit(
          [this, row_ptrs, lo, hi, out]() {
            std::vector<double> packed;
            ScoreBlock(row_ptrs + lo, hi - lo, out + lo * out_dim_, packed);
          }));
    }
    try {
      for (auto& f : futures) f.get();
    } catch (const std::exception& e) {
      return Status::Internal(std::string("batch scoring task failed: ") +
                              e.what());
    }
  }
  RowsTotal()->Increment(n);
  return Status::OK();
}

void FlatForest::PredictProbaInto(const std::vector<double>& row,
                                  std::vector<double>& out) const {
  out.assign(out_dim_, num_classes_ > 0 ? 0.0 : base_score_);
  const size_t trees = num_trees();
  for (size_t t = 0; t < trees; ++t) {
    int32_t node = tree_offsets_[t];
    int32_t f = feature_[static_cast<size_t>(node)];
    while (f >= 0) {
      node = row[static_cast<size_t>(f)] <=
                     threshold_[static_cast<size_t>(node)]
                 ? left_[static_cast<size_t>(node)]
                 : right_[static_cast<size_t>(node)];
      f = feature_[static_cast<size_t>(node)];
    }
    const double* leaf =
        leaf_values_.data() +
        static_cast<size_t>(leaf_index_[static_cast<size_t>(node)]) *
            leaf_dim_;
    for (size_t c = 0; c < leaf_dim_; ++c) out[c] += leaf[c];
  }
  if (num_classes_ > 0) {
    const double t = static_cast<double>(trees);
    for (double& v : out) v /= t;
  } else {
    out[0] = Sigmoid(out[0]);
  }
  RowsTotal()->Increment(1);
}

std::vector<double> FlatForest::PredictProba(
    const std::vector<double>& row) const {
  std::vector<double> out;
  PredictProbaInto(row, out);
  return out;
}

// Starts on a cache line so the per-row tree walk below keeps its
// alignment when unrelated code moves: the per-id Assess latency of
// plan-offline rose by a quarter when this function merely shifted 16
// bytes within its line.
__attribute__((aligned(64))) double FlatForest::PredictPositive(
    const std::vector<double>& row) const {
  // Accumulating only the positive component reproduces the legacy
  // doubles: acc[1]'s summation sequence is independent of acc[0].
  const size_t trees = num_trees();
  const size_t component = num_classes_ > 0 ? 1 : 0;
  double acc = num_classes_ > 0 ? 0.0 : base_score_;
  for (size_t t = 0; t < trees; ++t) {
    int32_t node = tree_offsets_[t];
    int32_t f = feature_[static_cast<size_t>(node)];
    while (f >= 0) {
      node = row[static_cast<size_t>(f)] <=
                     threshold_[static_cast<size_t>(node)]
                 ? left_[static_cast<size_t>(node)]
                 : right_[static_cast<size_t>(node)];
      f = feature_[static_cast<size_t>(node)];
    }
    acc += leaf_values_[static_cast<size_t>(
                            leaf_index_[static_cast<size_t>(node)]) *
                            leaf_dim_ +
                        component];
  }
  RowsTotal()->Increment(1);
  if (num_classes_ > 0) return acc / static_cast<double>(trees);
  return Sigmoid(acc);
}

Status FlatForest::PredictProbaBatch(const double* rows, size_t n,
                                     double* out,
                                     const BatchOptions& options) const {
  std::vector<const double*> ptrs(n);
  for (size_t i = 0; i < n; ++i) ptrs[i] = rows + i * num_features_;
  return ScorePtrs(ptrs.data(), n, out, options);
}

Result<std::vector<double>> FlatForest::PredictPositiveProbaBatch(
    const Dataset& data, const BatchOptions& options) const {
  if (!compiled()) {
    return Status::FailedPrecondition("forest is not compiled");
  }
  if (num_classes_ != 0 && num_classes_ != 2) {
    return Status::FailedPrecondition(
        "positive-class probabilities require a binary problem");
  }
  if (data.num_features() != num_features_) {
    return Status::InvalidArgument("feature count mismatch");
  }
  const size_t n = data.num_rows();
  std::vector<const double*> ptrs(n);
  for (size_t i = 0; i < n; ++i) ptrs[i] = data.row(i).data();
  std::vector<double> dense(n * out_dim_);
  CLOUDSURV_RETURN_NOT_OK(ScorePtrs(ptrs.data(), n, dense.data(), options));
  if (out_dim_ == 1) return dense;
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = dense[i * out_dim_ + 1];
  return out;
}

Result<std::vector<double>> FlatForest::PredictPositiveProbaRows(
    const std::vector<std::vector<double>>& rows,
    const BatchOptions& options) const {
  if (!compiled()) {
    return Status::FailedPrecondition("forest is not compiled");
  }
  if (num_classes_ != 0 && num_classes_ != 2) {
    return Status::FailedPrecondition(
        "positive-class probabilities require a binary problem");
  }
  const size_t n = rows.size();
  std::vector<const double*> ptrs(n);
  for (size_t i = 0; i < n; ++i) {
    if (rows[i].size() != num_features_) {
      return Status::InvalidArgument("feature count mismatch");
    }
    ptrs[i] = rows[i].data();
  }
  std::vector<double> dense(n * out_dim_);
  CLOUDSURV_RETURN_NOT_OK(ScorePtrs(ptrs.data(), n, dense.data(), options));
  if (out_dim_ == 1) return dense;
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = dense[i * out_dim_ + 1];
  return out;
}

Result<std::vector<int>> FlatForest::PredictBatch(
    const Dataset& data, const BatchOptions& options) const {
  if (!compiled()) {
    return Status::FailedPrecondition("forest is not compiled");
  }
  if (data.num_features() != num_features_) {
    return Status::InvalidArgument("feature count mismatch");
  }
  const size_t n = data.num_rows();
  std::vector<const double*> ptrs(n);
  for (size_t i = 0; i < n; ++i) ptrs[i] = data.row(i).data();
  std::vector<double> dense(n * out_dim_);
  CLOUDSURV_RETURN_NOT_OK(ScorePtrs(ptrs.data(), n, dense.data(), options));
  std::vector<int> out(n);
  if (num_classes_ > 0) {
    for (size_t i = 0; i < n; ++i) {
      const double* p = dense.data() + i * out_dim_;
      out[i] = static_cast<int>(std::max_element(p, p + out_dim_) - p);
    }
  } else {
    for (size_t i = 0; i < n; ++i) out[i] = dense[i] > 0.5 ? 1 : 0;
  }
  return out;
}

}  // namespace cloudsurv::ml
