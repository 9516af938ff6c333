#include "ml/random_forest.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "obs/metrics.h"

namespace cloudsurv::ml {

namespace {

// Runs `work` on `threads` threads (inline when fewer than two) and
// joins them.
template <typename Work>
void RunOnWorkers(unsigned threads, const Work& work) {
  if (threads <= 1) {
    work();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) pool.emplace_back(work);
  for (auto& th : pool) th.join();
}

// Wall time of one forest's out-of-bag accuracy pass.
obs::Histogram* OobHistogram() {
  static obs::Histogram* const oob_us =
      obs::Registry::Default().GetHistogram(
          "cloudsurv_ml_forest_oob_us",
          "Out-of-bag accuracy pass of one random-forest fit");
  return oob_us;
}

}  // namespace

std::string ForestParams::ToString() const {
  std::string mf;
  switch (max_features) {
    case MaxFeaturesRule::kSqrt:
      mf = "sqrt";
      break;
    case MaxFeaturesRule::kLog2:
      mf = "log2";
      break;
    case MaxFeaturesRule::kAll:
      mf = "all";
      break;
  }
  return "trees=" + std::to_string(num_trees) +
         " depth=" + std::to_string(max_depth) +
         " min_split=" + std::to_string(min_samples_split) +
         " min_leaf=" + std::to_string(min_samples_leaf) +
         " max_features=" + mf;
}

Status RandomForestClassifier::Fit(const Dataset& data,
                                   const ForestParams& params,
                                   uint64_t seed) {
  std::vector<size_t> all(data.num_rows());
  std::iota(all.begin(), all.end(), 0);
  return FitOnRows(data, all, params, seed);
}

Status RandomForestClassifier::FitOnRows(const Dataset& data,
                                         const std::vector<size_t>& rows,
                                         const ForestParams& params,
                                         uint64_t seed) {
  if (data.empty() || rows.empty()) {
    return Status::InvalidArgument("cannot fit a forest on empty data");
  }
  if (params.num_trees <= 0) {
    return Status::InvalidArgument("num_trees must be positive");
  }
  for (size_t r : rows) {
    if (r >= data.num_rows()) {
      return Status::OutOfRange("training row index out of range");
    }
  }
  const size_t n = rows.size();
  const int d = static_cast<int>(data.num_features());
  if (d == 0) {
    return Status::InvalidArgument("dataset has no features");
  }

  TreeParams tree_params;
  tree_params.max_depth = params.max_depth;
  tree_params.min_samples_split = params.min_samples_split;
  tree_params.min_samples_leaf = params.min_samples_leaf;
  tree_params.class_weights = params.class_weights;
  tree_params.split_algorithm = params.split_algorithm;
  switch (params.max_features) {
    case MaxFeaturesRule::kSqrt:
      tree_params.max_features =
          std::max(1, static_cast<int>(std::ceil(std::sqrt(d))));
      break;
    case MaxFeaturesRule::kLog2:
      tree_params.max_features = std::max(
          1, static_cast<int>(std::ceil(std::log2(std::max(2, d)))));
      break;
    case MaxFeaturesRule::kAll:
      tree_params.max_features = -1;
      break;
  }

  num_classes_ = data.num_classes();
  num_features_ = data.num_features();
  const size_t t = static_cast<size_t>(params.num_trees);
  trees_.assign(t, DecisionTreeClassifier());

  // One shared binned view of the training rows: bin edges come from the
  // view's distribution (what training on a materialized subset would
  // see), and every tree reads the same codes.
  BinnedDataset binned;
  std::vector<int> binned_labels;
  if (params.split_algorithm == SplitAlgorithm::kHistogram) {
    CLOUDSURV_ASSIGN_OR_RETURN(binned,
                               BinnedDataset::FromDatasetRows(data, rows));
    binned_labels.resize(n);
    for (size_t i = 0; i < n; ++i) binned_labels[i] = data.label(rows[i]);
  }

  // Derive all per-tree randomness up front so the result is independent
  // of the thread schedule. Samples are POSITIONS into `rows` (the
  // binned view's row space); the exact path maps them to dataset rows.
  Rng seeder(seed);
  std::vector<uint64_t> tree_seeds(t);
  std::vector<std::vector<size_t>> samples(t);
  std::vector<std::vector<char>> in_bag(t);
  for (size_t ti = 0; ti < t; ++ti) {
    tree_seeds[ti] = static_cast<uint64_t>(
        seeder.UniformInt(0, std::numeric_limits<int64_t>::max()));
    samples[ti].resize(n);
    in_bag[ti].assign(n, 0);
    if (params.bootstrap) {
      for (size_t i = 0; i < n; ++i) {
        const size_t pick = static_cast<size_t>(
            seeder.UniformInt(0, static_cast<int64_t>(n) - 1));
        samples[ti][i] = pick;
        in_bag[ti][pick] = 1;
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        samples[ti][i] = i;
        in_bag[ti][i] = 1;
      }
    }
  }

  std::atomic<size_t> next_tree{0};
  std::atomic<bool> failed{false};
  Status first_error;
  std::mutex error_mutex;
  unsigned hw = params.num_threads > 0
                    ? static_cast<unsigned>(params.num_threads)
                    : std::max(1u, std::thread::hardware_concurrency());
  hw = std::min<unsigned>(hw, static_cast<unsigned>(t));

  auto fit_one = [&](size_t ti) -> Status {
    if (params.split_algorithm == SplitAlgorithm::kHistogram) {
      return trees_[ti].FitBinned(binned, binned_labels, num_classes_,
                                  samples[ti], tree_params, tree_seeds[ti]);
    }
    std::vector<size_t> sample_rows(n);
    for (size_t i = 0; i < n; ++i) sample_rows[i] = rows[samples[ti][i]];
    return trees_[ti].FitSubset(data, sample_rows, tree_params,
                                tree_seeds[ti]);
  };
  auto worker = [&]() {
    while (true) {
      const size_t ti = next_tree.fetch_add(1);
      if (ti >= t || failed.load()) return;
      Status s = fit_one(ti);
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!failed.exchange(true)) first_error = s;
        return;
      }
    }
  };
  RunOnWorkers(hw, worker);
  if (failed.load()) {
    trees_.clear();
    return first_error;
  }

  // Aggregate importances.
  importances_.assign(num_features_, 0.0);
  for (const auto& tree : trees_) {
    const auto& imp = tree.feature_importances();
    for (size_t f = 0; f < num_features_; ++f) importances_[f] += imp[f];
  }
  for (double& v : importances_) v /= static_cast<double>(t);

  // Out-of-bag accuracy, on the fit's threads. Rows go in fixed chunks,
  // walked tree by tree so one tree's nodes stay in cache; each row still
  // sums its OOB trees in tree-index order, and only integer counts cross
  // threads, so the result is the same for any thread count.
  oob_accuracy_ = 0.0;
  if (params.bootstrap) {
    obs::ScopedTimer oob_timer(OobHistogram());
    const size_t chunk_rows = 256;
    const size_t num_chunks = (n + chunk_rows - 1) / chunk_rows;
    const size_t C = static_cast<size_t>(num_classes_);
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> evaluated{0};
    std::atomic<size_t> correct{0};
    auto oob_worker = [&]() {
      std::vector<double> acc(chunk_rows * C);
      std::vector<size_t> votes(chunk_rows);
      size_t my_evaluated = 0;
      size_t my_correct = 0;
      for (size_t ch = next_chunk.fetch_add(1); ch < num_chunks;
           ch = next_chunk.fetch_add(1)) {
        const size_t first = ch * chunk_rows;
        const size_t m = std::min(n - first, chunk_rows);
        std::fill(acc.begin(), acc.end(), 0.0);
        std::fill(votes.begin(), votes.end(), 0);
        for (size_t ti = 0; ti < t; ++ti) {
          for (size_t r = 0; r < m; ++r) {
            if (in_bag[ti][first + r]) continue;
            const auto& probs =
                trees_[ti].LeafDistribution(data.row(rows[first + r]));
            for (size_t c = 0; c < C; ++c) acc[r * C + c] += probs[c];
            ++votes[r];
          }
        }
        for (size_t r = 0; r < m; ++r) {
          if (votes[r] == 0) continue;
          const double* row_acc = acc.data() + r * C;
          const int pred = static_cast<int>(
              std::max_element(row_acc, row_acc + C) - row_acc);
          ++my_evaluated;
          if (pred == data.label(rows[first + r])) ++my_correct;
        }
      }
      evaluated += my_evaluated;
      correct += my_correct;
    };
    RunOnWorkers(static_cast<unsigned>(std::min<size_t>(hw, num_chunks)),
                 oob_worker);
    if (evaluated > 0) {
      oob_accuracy_ = static_cast<double>(correct.load()) /
                      static_cast<double>(evaluated.load());
    }
  }
  return Status::OK();
}

void RandomForestClassifier::AccumulateProbaInto(
    const std::vector<double>& row, std::vector<double>& acc) const {
  acc.assign(static_cast<size_t>(num_classes_), 0.0);
  for (const auto& tree : trees_) {
    const auto& probs = tree.LeafDistribution(row);
    for (size_t c = 0; c < acc.size(); ++c) acc[c] += probs[c];
  }
  const double t = static_cast<double>(trees_.size());
  for (double& v : acc) v /= t;
}

std::vector<double> RandomForestClassifier::PredictProba(
    const std::vector<double>& row) const {
  std::vector<double> acc;
  AccumulateProbaInto(row, acc);
  return acc;
}

int RandomForestClassifier::Predict(const std::vector<double>& row) const {
  std::vector<double> acc;
  AccumulateProbaInto(row, acc);
  return static_cast<int>(std::max_element(acc.begin(), acc.end()) -
                          acc.begin());
}

Result<std::vector<int>> RandomForestClassifier::PredictBatch(
    const Dataset& data) const {
  if (!fitted()) {
    return Status::FailedPrecondition("forest is not fitted");
  }
  if (data.num_features() != num_features_) {
    return Status::InvalidArgument("feature count mismatch");
  }
  std::vector<int> out;
  out.reserve(data.num_rows());
  std::vector<double> scratch;
  for (size_t i = 0; i < data.num_rows(); ++i) {
    AccumulateProbaInto(data.row(i), scratch);
    out.push_back(static_cast<int>(
        std::max_element(scratch.begin(), scratch.end()) - scratch.begin()));
  }
  return out;
}

Result<std::vector<int>> RandomForestClassifier::PredictRows(
    const Dataset& data, const std::vector<size_t>& rows) const {
  if (!fitted()) {
    return Status::FailedPrecondition("forest is not fitted");
  }
  if (data.num_features() != num_features_) {
    return Status::InvalidArgument("feature count mismatch");
  }
  std::vector<int> out;
  out.reserve(rows.size());
  std::vector<double> scratch;
  for (size_t r : rows) {
    if (r >= data.num_rows()) {
      return Status::OutOfRange("prediction row index out of range");
    }
    AccumulateProbaInto(data.row(r), scratch);
    out.push_back(static_cast<int>(
        std::max_element(scratch.begin(), scratch.end()) - scratch.begin()));
  }
  return out;
}

Result<std::vector<double>> RandomForestClassifier::PredictPositiveProba(
    const Dataset& data) const {
  if (!fitted()) {
    return Status::FailedPrecondition("forest is not fitted");
  }
  if (num_classes_ != 2) {
    return Status::FailedPrecondition(
        "positive-class probabilities require a binary problem");
  }
  if (data.num_features() != num_features_) {
    return Status::InvalidArgument("feature count mismatch");
  }
  std::vector<double> out;
  out.reserve(data.num_rows());
  std::vector<double> scratch;
  for (size_t i = 0; i < data.num_rows(); ++i) {
    AccumulateProbaInto(data.row(i), scratch);
    out.push_back(scratch[1]);
  }
  return out;
}

std::string RandomForestClassifier::Serialize() const {
  char header[128];
  std::snprintf(header, sizeof(header), "forest %zu %d %zu %.17g\n",
                trees_.size(), num_classes_, num_features_, oob_accuracy_);
  std::string out = header;
  out += "importances";
  for (double v : importances_) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.17g", v);
    out += buf;
  }
  out += "\n";
  for (const auto& tree : trees_) {
    out += tree.Serialize();
  }
  return out;
}

Result<RandomForestClassifier> RandomForestClassifier::Deserialize(
    const std::string& text) {
  std::istringstream is(text);
  std::string tag;
  RandomForestClassifier forest;
  size_t num_trees = 0;
  if (!(is >> tag >> num_trees >> forest.num_classes_ >>
        forest.num_features_ >> forest.oob_accuracy_) ||
      tag != "forest") {
    return Status::InvalidArgument("malformed forest header");
  }
  if (!(is >> tag) || tag != "importances") {
    return Status::InvalidArgument("missing forest importances");
  }
  forest.importances_.resize(forest.num_features_);
  for (double& v : forest.importances_) {
    if (!(is >> v)) {
      return Status::InvalidArgument("malformed forest importances");
    }
  }
  // The remainder is the concatenation of tree blocks; split on the
  // "tree " header lines.
  std::string rest;
  std::getline(is, rest);  // consume end of importances line
  std::string line;
  std::vector<std::string> blocks;
  while (std::getline(is, line)) {
    if (line.rfind("tree ", 0) == 0) {
      blocks.emplace_back();
    }
    if (blocks.empty()) {
      return Status::InvalidArgument("unexpected content before trees");
    }
    blocks.back() += line;
    blocks.back() += "\n";
  }
  if (blocks.size() != num_trees) {
    return Status::InvalidArgument("forest tree count mismatch");
  }
  forest.trees_.reserve(num_trees);
  for (const std::string& block : blocks) {
    CLOUDSURV_ASSIGN_OR_RETURN(DecisionTreeClassifier tree,
                               DecisionTreeClassifier::Deserialize(block));
    if (tree.num_classes() != forest.num_classes_ ||
        tree.num_features() != forest.num_features_) {
      return Status::InvalidArgument("tree shape mismatches forest header");
    }
    forest.trees_.push_back(std::move(tree));
  }
  if (forest.trees_.empty()) {
    return Status::InvalidArgument("serialized forest has no trees");
  }
  return forest;
}

}  // namespace cloudsurv::ml
