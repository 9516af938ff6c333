#include "ml/flat_forest.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <utility>

#include "artifact/reader.h"
#include "artifact/writer.h"
#include "obs/metrics.h"

namespace cloudsurv::ml {

namespace {

using Node = FlatForest::Node;
using Tree = FlatForest::Tree;

/// (tree, row) pairs a walk keeps in flight.
constexpr size_t kLanes = 8;

/// Row widths up to this many doubles (the -inf leaf column included)
/// are copied to the stack by PredictPositive; wider rows use the heap.
constexpr size_t kStackRowWidth = 256;

obs::Histogram* CompileHistogram() {
  static obs::Histogram* h = obs::Registry::Default().GetHistogram(
      "cloudsurv_inference_compile_ms",
      "FlatForest compilation time (node layout)", "ms");
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

/// The one forest walk. Adds every tree's leaf value for each of `n`
/// rows (`rows + r * stride`, column `stride - 1` holding -inf) into
/// `out[r]`. The (tree, row) pairs are enumerated tree-major and walked
/// kLanes at a time, each chunk for exactly the largest depth among its
/// trees (leaves loop on themselves), so one row walks eight trees at
/// once and a block walks eight rows of a tree. Within a chunk the
/// values are added in lane order, hence per row in tree order 0..T-1
/// with plain double adds — the summation sequence of
/// `RandomForestClassifier::PredictProba`.
__attribute__((aligned(64))) void Walk(const Node* nodes, const Tree* trees,
                                       size_t num_trees, const double* rows,
                                       size_t stride, size_t n, double* out) {
  const size_t pairs = num_trees * n;
  size_t t = 0;
  size_t r = 0;
  for (size_t p = 0; p < pairs; p += kLanes) {
    const size_t m = std::min(kLanes, pairs - p);
    int32_t node[kLanes];
    const double* x[kLanes];
    double* acc[kLanes];
    int32_t depth = 0;
    for (size_t l = 0; l < kLanes; ++l) {
      if (l < m) {
        node[l] = trees[t].root;
        x[l] = rows + r * stride;
        acc[l] = out + r;
        depth = std::max(depth, trees[t].depth);
        if (++r == n) {
          r = 0;
          ++t;
        }
      } else {
        // Idle lanes repeat lane 0's walk; their leaves are not added.
        node[l] = node[0];
        x[l] = x[0];
      }
    }
    for (int32_t s = 0; s < depth; ++s) {
      for (size_t l = 0; l < kLanes; ++l) {
        const Node& at = nodes[node[l]];
        node[l] = at.left + !(x[l][at.feature] <= at.value);
      }
    }
    for (size_t l = 0; l < m; ++l) *acc[l] += nodes[node[l]].value;
  }
}

}  // namespace

Result<FlatForest> FlatForest::Compile(const RandomForestClassifier& forest) {
  const auto start = std::chrono::steady_clock::now();
  if (!forest.fitted()) {
    return Status::FailedPrecondition("cannot compile an unfitted forest");
  }
  if (forest.num_classes() != 2) {
    return Status::FailedPrecondition(
        "a flat forest scores two classes; this forest has " +
        std::to_string(forest.num_classes()));
  }
  const auto& trees = forest.trees();
  if (trees.empty()) {
    return Status::Internal("fitted forest has no trees");
  }
  size_t total_nodes = 0;
  for (const auto& tree : trees) total_nodes += tree.num_nodes();
  if (total_nodes >
      static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return Status::OutOfRange("forest too large for int32 node ids");
  }
  FlatForest flat;
  flat.num_features_ = trees.front().num_features();
  const auto leaf_feature = static_cast<int32_t>(flat.num_features_);
  std::vector<Node> nodes;
  std::vector<Tree> tree_entries;
  nodes.reserve(total_nodes);
  tree_entries.reserve(trees.size());

  std::vector<int32_t> order;
  std::vector<int32_t> level;
  std::vector<int32_t> pos;
  for (const auto& tree : trees) {
    const size_t count = tree.num_nodes();
    if (count == 0) {
      return Status::Internal("fitted forest contains an empty tree");
    }
    if (tree.num_features() != flat.num_features_) {
      return Status::Internal("trees disagree on feature count");
    }
    // Breadth-first order (root first, levels left to right): the hot
    // first levels pack onto adjacent cache lines, and a split's two
    // children become neighbours, so right == left + 1.
    order.assign(1, 0);
    level.assign(count, -1);
    level[0] = 0;
    int32_t depth = 0;
    for (size_t head = 0; head < order.size(); ++head) {
      const auto view = tree.node_view(static_cast<size_t>(order[head]));
      if (view.feature < 0) continue;
      for (const int child : {view.left, view.right}) {
        if (child < 0 || static_cast<size_t>(child) >= count ||
            level[static_cast<size_t>(child)] >= 0) {
          return Status::Internal("split node with invalid children");
        }
        const int32_t child_level =
            level[static_cast<size_t>(order[head])] + 1;
        level[static_cast<size_t>(child)] = child_level;
        depth = std::max(depth, child_level);
        order.push_back(child);
      }
    }
    // Packed absolute index of each training node.
    const auto offset = static_cast<int32_t>(nodes.size());
    pos.assign(count, -1);
    for (size_t k = 0; k < order.size(); ++k) {
      pos[static_cast<size_t>(order[k])] = offset + static_cast<int32_t>(k);
    }
    for (size_t k = 0; k < order.size(); ++k) {
      const auto view = tree.node_view(static_cast<size_t>(order[k]));
      const auto self = offset + static_cast<int32_t>(k);
      if (view.feature < 0) {
        if (view.probabilities->size() != 2) {
          return Status::Internal("leaf distribution size mismatch");
        }
        nodes.push_back({(*view.probabilities)[1], leaf_feature, self});
      } else {
        nodes.push_back({view.threshold, view.feature,
                         pos[static_cast<size_t>(view.left)]});
      }
    }
    tree_entries.push_back({offset, depth});
  }
  flat.nodes_.Adopt(std::move(nodes));
  flat.trees_.Adopt(std::move(tree_entries));
  CompileHistogram()->Observe(ElapsedMs(start));
  return flat;
}

Status FlatForest::SelfCheck() const {
  if (!compiled()) {
    return Status::FailedPrecondition("forest is not compiled");
  }
  const size_t count = nodes_.size();
  if (count > static_cast<size_t>(std::numeric_limits<int32_t>::max()) ||
      num_features_ >=
          static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return Status::InvalidArgument("forest too large for int32 node ids");
  }
  const auto leaf_feature = static_cast<int32_t>(num_features_);
  if (trees_[0].root != 0) {
    return Status::InvalidArgument("first tree does not start at node 0");
  }
  // Longest path from the tree's root to each node. Children always
  // follow their parent, so one forward pass settles every node.
  std::vector<int32_t> level;
  for (size_t t = 0; t < trees_.size(); ++t) {
    const int64_t lo = trees_[t].root;
    const int64_t hi = t + 1 < trees_.size()
                           ? int64_t{trees_[t + 1].root}
                           : static_cast<int64_t>(count);
    if (lo >= hi || hi > static_cast<int64_t>(count)) {
      return Status::InvalidArgument("tree " + std::to_string(t) +
                                     " has an empty or out-of-bounds "
                                     "node range");
    }
    level.assign(static_cast<size_t>(hi - lo), 0);
    int32_t depth = 0;
    for (int64_t i = lo; i < hi; ++i) {
      const Node& node = nodes_[static_cast<size_t>(i)];
      const int32_t here = level[static_cast<size_t>(i - lo)];
      depth = std::max(depth, here);
      if (node.feature == leaf_feature) {
        if (node.left != i) {
          return Status::InvalidArgument(
              "leaf " + std::to_string(i) + " does not loop on itself");
        }
        if (std::isnan(node.value)) {
          return Status::InvalidArgument("leaf " + std::to_string(i) +
                                         " has a NaN value");
        }
        continue;
      }
      if (node.feature < 0 || node.feature > leaf_feature) {
        return Status::InvalidArgument(
            "node " + std::to_string(i) + " reads feature " +
            std::to_string(node.feature) + " of " +
            std::to_string(num_features_));
      }
      if (node.left <= i || int64_t{node.left} + 1 >= hi) {
        return Status::InvalidArgument("node " + std::to_string(i) +
                                       " has a child outside tree " +
                                       std::to_string(t));
      }
      for (const int64_t child : {int64_t{node.left}, int64_t{node.left} + 1}) {
        int32_t& below = level[static_cast<size_t>(child - lo)];
        below = std::max(below, here + 1);
      }
    }
    if (trees_[t].depth != depth) {
      return Status::InvalidArgument(
          "tree " + std::to_string(t) + " stores depth " +
          std::to_string(trees_[t].depth) + ", its true depth is " +
          std::to_string(depth));
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
  artifact::ForestMeta meta{};
  meta.num_features = num_features_;
  writer.AddStruct(SectionId::kForestMeta, slot, meta);
  writer.AddArray(SectionId::kForestNodes, slot, nodes_.data(),
                  nodes_.size());
  writer.AddArray(SectionId::kForestTrees, slot, trees_.data(),
                  trees_.size());
  return Status::OK();
}

Result<FlatForest> FlatForest::FromView(
    const artifact::ArtifactReader& reader, uint32_t slot) {
  using artifact::SectionId;
  CLOUDSURV_ASSIGN_OR_RETURN(
      const artifact::ForestMeta meta,
      reader.Struct<artifact::ForestMeta>(SectionId::kForestMeta, slot));
  // Both arrays are used in place: the reader validated bounds,
  // alignment and checksums, and SelfCheck below the structure.
  CLOUDSURV_ASSIGN_OR_RETURN(const auto nodes,
                             reader.Array<Node>(SectionId::kForestNodes, slot));
  CLOUDSURV_ASSIGN_OR_RETURN(const auto trees,
                             reader.Array<Tree>(SectionId::kForestTrees, slot));
  if (trees.empty()) {
    return Status::InvalidArgument("artifact forest has no trees");
  }
  FlatForest flat;
  flat.num_features_ = static_cast<size_t>(meta.num_features);
  flat.nodes_.BindView(nodes.data, nodes.size);
  flat.trees_.BindView(trees.data, trees.size);
  flat.backing_ = reader.backing();
  CLOUDSURV_RETURN_NOT_OK(flat.SelfCheck());
  return flat;
}

void FlatForest::ScoreBlock(const double* const* rows, size_t n, double* out,
                            std::vector<double>& packed) const {
  // Pack the block with one extra -inf column per row, the column every
  // leaf reads. Packing copies row bytes verbatim, so it cannot perturb
  // results.
  const size_t stride = num_features_ + 1;
  packed.resize(n * stride);
  for (size_t i = 0; i < n; ++i) {
    double* dst = packed.data() + i * stride;
    std::memcpy(dst, rows[i], num_features_ * sizeof(double));
    dst[num_features_] = -std::numeric_limits<double>::infinity();
  }
  std::fill(out, out + n, 0.0);
  Walk(nodes_.data(), trees_.data(), trees_.size(), packed.data(), stride, n,
       out);
  const double t = static_cast<double>(trees_.size());
  for (size_t i = 0; i < n; ++i) out[i] /= t;
}

Status FlatForest::ScorePtrs(const double* const* row_ptrs, size_t n,
                             double* out, const BatchOptions& options) const {
  if (!compiled()) {
    return Status::FailedPrecondition("forest is not compiled");
  }
  if (n == 0) return Status::OK();
  obs::ScopedTimer timer(BatchLatency());
  const size_t num_blocks = (n + kBlockRows - 1) / kBlockRows;

  if (options.pool == nullptr || num_blocks <= 1) {
    std::vector<double> packed;
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t lo = b * kBlockRows;
      const size_t hi = std::min(n, lo + kBlockRows);
      ScoreBlock(row_ptrs + lo, hi - lo, out + lo, packed);
    }
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(num_blocks);
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t lo = b * kBlockRows;
      const size_t hi = std::min(n, lo + kBlockRows);
      futures.push_back(options.pool->Submit([this, row_ptrs, lo, hi, out]() {
        std::vector<double> packed;
        ScoreBlock(row_ptrs + lo, hi - lo, out + lo, packed);
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

// Starts on a cache line so the per-id walk keeps its alignment when
// unrelated code moves: the per-id Assess latency of plan-offline rose
// by a quarter when an earlier version of this function merely shifted
// 16 bytes within its line.
__attribute__((aligned(64))) double FlatForest::PredictPositive(
    const std::vector<double>& row) const {
  const size_t stride = num_features_ + 1;
  double stack_row[kStackRowWidth];
  std::vector<double> heap_row;
  double* x = stack_row;
  if (stride > kStackRowWidth) {
    heap_row.resize(stride);
    x = heap_row.data();
  }
  std::memcpy(x, row.data(), num_features_ * sizeof(double));
  x[num_features_] = -std::numeric_limits<double>::infinity();
  double acc = 0.0;
  Walk(nodes_.data(), trees_.data(), trees_.size(), x, stride, 1, &acc);
  RowsTotal()->Increment(1);
  return acc / static_cast<double>(trees_.size());
}

Status FlatForest::PredictPositiveBatch(const double* rows, size_t n,
                                        double* out,
                                        const BatchOptions& options) const {
  std::vector<const double*> ptrs(n);
  for (size_t i = 0; i < n; ++i) ptrs[i] = rows + i * num_features_;
  return ScorePtrs(ptrs.data(), n, out, options);
}

Result<std::vector<double>> FlatForest::PredictPositiveProbaBatch(
    const Dataset& data, const std::vector<size_t>& rows,
    const BatchOptions& options) const {
  if (!compiled()) {
    return Status::FailedPrecondition("forest is not compiled");
  }
  if (data.num_features() != num_features_) {
    return Status::InvalidArgument("feature count mismatch");
  }
  const size_t n = rows.size();
  std::vector<const double*> ptrs(n);
  for (size_t i = 0; i < n; ++i) {
    if (rows[i] >= data.num_rows()) {
      return Status::OutOfRange("prediction row index out of range");
    }
    ptrs[i] = data.row(rows[i]).data();
  }
  std::vector<double> out(n);
  CLOUDSURV_RETURN_NOT_OK(ScorePtrs(ptrs.data(), n, out.data(), options));
  return out;
}

}  // namespace cloudsurv::ml
