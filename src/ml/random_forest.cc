#include "ml/random_forest.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace cloudsurv::ml {

namespace {

// Worker threads a fit may use: params.num_threads, 0 = hardware.
unsigned WorkerCount(const ForestParams& params) {
  return params.num_threads > 0
             ? static_cast<unsigned>(params.num_threads)
             : std::max(1u, std::thread::hardware_concurrency());
}

// The per-tree parameters of a forest over `d` features.
TreeParams TreeParamsFor(const ForestParams& params, int d) {
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
  return tree_params;
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
  std::vector<ForestJob> jobs = {{&rows, seed, this}};
  std::vector<std::vector<char>> in_bag;
  CLOUDSURV_RETURN_NOT_OK(FitTrees(data, params, jobs, &in_bag));
  if (!params.bootstrap) return Status::OK();

  // Out-of-bag accuracy, on the fit's threads. Rows go in fixed chunks,
  // walked tree by tree so one tree's nodes stay in cache; each row still
  // sums its OOB trees in tree-index order, and only integer counts cross
  // threads, so the result is the same for any thread count.
  obs::ScopedTimer oob_timer(OobHistogram());
  const size_t n = rows.size();
  const size_t t = trees_.size();
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
  RunOnWorkers(static_cast<unsigned>(std::min<size_t>(
                   std::min<size_t>(WorkerCount(params), t), num_chunks)),
               oob_worker);
  if (evaluated > 0) {
    oob_accuracy_ = static_cast<double>(correct.load()) /
                    static_cast<double>(evaluated.load());
  }
  return Status::OK();
}

Status RandomForestClassifier::FitForests(const Dataset& data,
                                          const ForestParams& params,
                                          std::vector<ForestJob>& jobs) {
  return FitTrees(data, params, jobs, /*in_bag=*/nullptr);
}

Status RandomForestClassifier::FitTrees(
    const Dataset& data, const ForestParams& params,
    std::vector<ForestJob>& jobs, std::vector<std::vector<char>>* in_bag) {
  for (const ForestJob& job : jobs) {
    if (job.rows == nullptr || job.forest == nullptr) {
      return Status::InvalidArgument("a forest job needs rows and a forest");
    }
    if (data.empty() || job.rows->empty()) {
      return Status::InvalidArgument("cannot fit a forest on empty data");
    }
    if (params.num_trees <= 0) {
      return Status::InvalidArgument("num_trees must be positive");
    }
    if (job.rows->size() > UINT32_MAX) {
      return Status::InvalidArgument(
          "a forest view supports at most 2^32 - 1 rows");
    }
    for (size_t r : *job.rows) {
      if (r >= data.num_rows()) {
        return Status::OutOfRange("training row index out of range");
      }
    }
    if (data.num_features() == 0) {
      return Status::InvalidArgument("dataset has no features");
    }
  }
  const TreeParams tree_params =
      TreeParamsFor(params, static_cast<int>(data.num_features()));
  const bool histogram =
      params.split_algorithm == SplitAlgorithm::kHistogram;
  const size_t t = static_cast<size_t>(params.num_trees);
  const unsigned workers = WorkerCount(params);

  // Phase 1, one task per job. A job's binned view has bin edges from
  // the view's own distribution (what training on a materialized subset
  // would see), shared by all its trees. All per-tree randomness comes
  // from the job's own seed, drawn up front, so the trees are
  // independent of the schedule. A tree's n draws are POSITIONS into
  // the job's rows (the binned view's row space), tallied into weighted
  // rows; the histogram path moves each sample into its tree fit. The
  // exact search sums a node's class weights in sample order, so it
  // keeps the draws in draw order and maps them to dataset rows.
  struct JobInputs {
    BinnedDataset binned;
    std::vector<int> labels;
    std::vector<uint64_t> tree_seeds;
    std::vector<std::vector<WeightedRow>> samples;
    std::vector<std::vector<uint32_t>> exact_draws;
  };
  for (ForestJob& job : jobs) {
    RandomForestClassifier& forest = *job.forest;
    forest.num_classes_ = data.num_classes();
    forest.num_features_ = data.num_features();
    forest.oob_accuracy_ = 0.0;
    forest.trees_.assign(t, DecisionTreeClassifier());
  }
  auto fail = [&jobs](Status status) {
    for (ForestJob& job : jobs) job.forest->trees_.clear();
    return status;
  };
  std::vector<JobInputs> inputs(jobs.size());
  Status prepared =
      RunTasks(jobs.size(), workers, [&](size_t j) -> Status {
        const std::vector<size_t>& rows = *jobs[j].rows;
        const size_t n = rows.size();
        JobInputs& in = inputs[j];
        if (histogram) {
          CLOUDSURV_ASSIGN_OR_RETURN(
              in.binned, BinnedDataset::FromDatasetRows(data, rows));
          in.labels.resize(n);
          for (size_t i = 0; i < n; ++i) in.labels[i] = data.label(rows[i]);
        }
        Rng seeder(jobs[j].seed);
        in.tree_seeds.resize(t);
        in.samples.resize(t);
        if (!histogram) in.exact_draws.resize(t);
        std::vector<uint32_t> draws(n);
        for (size_t ti = 0; ti < t; ++ti) {
          in.tree_seeds[ti] = static_cast<uint64_t>(
              seeder.UniformInt(0, std::numeric_limits<int64_t>::max()));
          if (params.bootstrap) {
            for (uint32_t& draw : draws) {
              draw = static_cast<uint32_t>(
                  seeder.UniformInt(0, static_cast<int64_t>(n) - 1));
            }
          } else {
            std::iota(draws.begin(), draws.end(), 0u);
          }
          in.samples[ti] =
              TallyRows(n, n, [&draws](size_t i) { return draws[i]; });
          if (!histogram) in.exact_draws[ti] = draws;
        }
        if (in_bag != nullptr) {
          // A row is in a tree's bag when its tally is positive, that
          // is, when it has a sample entry.
          in_bag->assign(t, std::vector<char>(n, 0));
          for (size_t ti = 0; ti < t; ++ti) {
            for (const WeightedRow& s : in.samples[ti]) {
              (*in_bag)[ti][s.row] = 1;
            }
          }
        }
        return Status::OK();
      });
  if (!prepared.ok()) return fail(std::move(prepared));

  // Phase 2: every job's trees from one queue, job-major.
  Status fitted =
      RunTasks(jobs.size() * t, workers, [&](size_t task) -> Status {
        const size_t j = task / t;
        const size_t ti = task % t;
        JobInputs& in = inputs[j];
        DecisionTreeClassifier& tree = jobs[j].forest->trees_[ti];
        if (histogram) {
          return tree.FitBinned(in.binned, in.labels, data.num_classes(),
                                std::move(in.samples[ti]), tree_params,
                                in.tree_seeds[ti]);
        }
        const std::vector<size_t>& rows = *jobs[j].rows;
        std::vector<size_t> sample_rows(rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          sample_rows[i] = rows[in.exact_draws[ti][i]];
        }
        return tree.FitSubset(data, sample_rows, tree_params,
                              in.tree_seeds[ti]);
      });
  if (!fitted.ok()) return fail(std::move(fitted));

  // Importances, summed per forest in tree order.
  for (ForestJob& job : jobs) {
    RandomForestClassifier& forest = *job.forest;
    forest.importances_.assign(forest.num_features_, 0.0);
    for (const auto& tree : forest.trees_) {
      const auto& imp = tree.feature_importances();
      for (size_t f = 0; f < forest.num_features_; ++f) {
        forest.importances_[f] += imp[f];
      }
    }
    for (double& v : forest.importances_) v /= static_cast<double>(t);
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

}  // namespace cloudsurv::ml
