#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "ml/binned_dataset.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"

namespace cloudsurv::ml {
namespace {

// Every feature takes values on a small grid (< 256 distinct values),
// so the binned view has one bin per distinct value and the histogram
// search evaluates exactly the candidate cuts the exact search does.
Dataset GridValuedData(int n, int grid_size, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    const double x0 =
        static_cast<double>(rng.UniformInt(0, grid_size - 1)) / grid_size;
    const double x1 =
        static_cast<double>(rng.UniformInt(0, grid_size - 1)) / grid_size;
    const double x2 =
        static_cast<double>(rng.UniformInt(0, grid_size - 1)) / grid_size;
    rows.push_back({x0, x1, x2});
    labels.push_back((x0 + 0.3 * x1 > 0.6) ? 1 : 0);
  }
  auto d = Dataset::Make({"a", "b", "c"}, std::move(rows),
                         std::move(labels));
  EXPECT_TRUE(d.ok());
  return *d;
}

// Continuous data with far more than 256 distinct values per feature.
Dataset ContinuousData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    const int label = rng.Bernoulli(0.5) ? 1 : 0;
    rows.push_back({rng.Normal(label * 1.5, 1.0), rng.Normal(0.0, 1.0)});
    labels.push_back(label);
  }
  auto d = Dataset::Make({"x", "noise"}, std::move(rows),
                         std::move(labels));
  EXPECT_TRUE(d.ok());
  return *d;
}

TEST(BinnedDatasetTest, OneBinPerDistinctValueWhenFewDistinct) {
  auto d = Dataset::Make({"x"}, {{1.0}, {2.0}, {2.0}, {5.0}, {1.0}},
                         {0, 1, 1, 0, 0});
  ASSERT_TRUE(d.ok());
  auto binned = BinnedDataset::FromDataset(*d);
  ASSERT_TRUE(binned.ok());
  EXPECT_EQ(binned->num_rows(), 5u);
  EXPECT_EQ(binned->num_features(), 1u);
  EXPECT_EQ(binned->num_bins(0), 3);  // distinct values {1, 2, 5}
  EXPECT_FALSE(binned->constant(0));
  // Codes follow value order.
  EXPECT_EQ(binned->code(0, 0), 0);
  EXPECT_EQ(binned->code(1, 0), 1);
  EXPECT_EQ(binned->code(3, 0), 2);
  EXPECT_EQ(binned->code(4, 0), 0);
}

TEST(BinnedDatasetTest, CodeThresholdInvariant) {
  const Dataset d = ContinuousData(2000, 41);
  auto binned = BinnedDataset::FromDataset(d, /*max_bins=*/16);
  ASSERT_TRUE(binned.ok());
  // value <= threshold(f, b)  <=>  code(row, f) <= b, for every row,
  // feature, and boundary.
  for (size_t f = 0; f < binned->num_features(); ++f) {
    ASSERT_LE(binned->num_bins(f), 16);
    for (size_t r = 0; r < d.num_rows(); ++r) {
      const double v = d.feature(r, f);
      const int code = binned->code(r, f);
      for (int b = 0; b + 1 < binned->num_bins(f); ++b) {
        EXPECT_EQ(v <= binned->threshold(f, b), code <= b)
            << "row " << r << " feature " << f << " boundary " << b;
      }
    }
  }
}

TEST(BinnedDatasetTest, QuantileBinsAreNonEmptyAndBalanced) {
  const Dataset d = ContinuousData(4096, 42);
  auto binned = BinnedDataset::FromDataset(d, /*max_bins=*/8);
  ASSERT_TRUE(binned.ok());
  for (size_t f = 0; f < binned->num_features(); ++f) {
    std::vector<size_t> counts(static_cast<size_t>(binned->num_bins(f)),
                               0);
    for (size_t r = 0; r < d.num_rows(); ++r) {
      counts[binned->code(r, f)]++;
    }
    for (size_t b = 0; b < counts.size(); ++b) {
      EXPECT_GT(counts[b], 0u) << "empty bin " << b << " feature " << f;
      // Quantile rule: no bin hoards the distribution.
      EXPECT_LT(counts[b], d.num_rows() / 2);
    }
  }
}

TEST(BinnedDatasetTest, ConstantFeatureHasSingleBin) {
  auto d = Dataset::Make({"c", "x"},
                         {{7.0, 1.0}, {7.0, 2.0}, {7.0, 3.0}}, {0, 1, 0});
  ASSERT_TRUE(d.ok());
  auto binned = BinnedDataset::FromDataset(*d);
  ASSERT_TRUE(binned.ok());
  EXPECT_TRUE(binned->constant(0));
  EXPECT_EQ(binned->num_bins(0), 1);
  EXPECT_FALSE(binned->constant(1));
}

TEST(BinnedDatasetTest, FromDatasetRowsMatchesMaterializedSubset) {
  const Dataset d = ContinuousData(500, 43);
  std::vector<size_t> rows;
  for (size_t i = 0; i < d.num_rows(); i += 3) rows.push_back(i);
  auto view = BinnedDataset::FromDatasetRows(d, rows, /*max_bins=*/32);
  ASSERT_TRUE(view.ok());
  auto subset = d.Subset(rows);
  ASSERT_TRUE(subset.ok());
  auto copy = BinnedDataset::FromDataset(*subset, /*max_bins=*/32);
  ASSERT_TRUE(copy.ok());
  ASSERT_EQ(view->num_rows(), copy->num_rows());
  for (size_t f = 0; f < view->num_features(); ++f) {
    ASSERT_EQ(view->num_bins(f), copy->num_bins(f));
    for (int b = 0; b + 1 < view->num_bins(f); ++b) {
      EXPECT_DOUBLE_EQ(view->threshold(f, b), copy->threshold(f, b));
    }
    for (size_t r = 0; r < view->num_rows(); ++r) {
      EXPECT_EQ(view->code(r, f), copy->code(r, f));
    }
  }
}

TEST(BinnedDatasetTest, RejectsInvalidInputs) {
  EXPECT_FALSE(BinnedDataset::FromDataset(Dataset()).ok());
  const Dataset d = ContinuousData(20, 44);
  EXPECT_FALSE(BinnedDataset::FromDataset(d, 1).ok());
  EXPECT_FALSE(BinnedDataset::FromDataset(d, 257).ok());
  EXPECT_FALSE(BinnedDataset::FromDatasetRows(d, {999}).ok());
  EXPECT_FALSE(BinnedDataset::FromMatrix(
                   4, 1, [](size_t r, size_t) {
                     return r == 2 ? std::nan("") : 1.0;
                   })
                   .ok());
}

// The two search paths choose the same partitions (same features, same
// row routing) but may serialize different real-valued thresholds deep
// in the tree: the exact search cuts at the midpoint of the node-local
// value gap, while the histogram search reuses the global bin boundary
// inside that gap. Both land in the same gap, so training rows route
// identically; this helper asserts that structural equivalence.
void ExpectStructurallyEqual(const DecisionTreeClassifier& exact,
                             const DecisionTreeClassifier& hist,
                             const Dataset& d) {
  EXPECT_EQ(exact.num_nodes(), hist.num_nodes());
  EXPECT_EQ(exact.depth(), hist.depth());
  const auto& ie = exact.feature_importances();
  const auto& ih = hist.feature_importances();
  ASSERT_EQ(ie.size(), ih.size());
  for (size_t f = 0; f < ie.size(); ++f) {
    EXPECT_DOUBLE_EQ(ie[f], ih[f]) << "feature " << f;
  }
  auto pe = exact.PredictBatch(d);
  auto ph = hist.PredictBatch(d);
  ASSERT_TRUE(pe.ok() && ph.ok());
  EXPECT_EQ(*pe, *ph);
}

TEST(HistogramEquivalenceTest, RootSplitSerializesIdentically) {
  // At the root every global distinct value is present in-node, so the
  // two searches agree on the threshold value too, not just the gap.
  const Dataset d = GridValuedData(600, 40, 49);
  TreeParams exact;
  exact.max_depth = 1;
  exact.split_algorithm = SplitAlgorithm::kExact;
  TreeParams hist = exact;
  hist.split_algorithm = SplitAlgorithm::kHistogram;
  DecisionTreeClassifier te, th;
  ASSERT_TRUE(te.Fit(d, exact, 49).ok());
  ASSERT_TRUE(th.Fit(d, hist, 49).ok());
  EXPECT_EQ(te.Serialize(), th.Serialize());
}

TEST(HistogramEquivalenceTest, TreeMatchesExactOnFewDistinctValues) {
  const Dataset d = GridValuedData(600, 40, 50);
  TreeParams exact;
  exact.split_algorithm = SplitAlgorithm::kExact;
  TreeParams hist;
  hist.split_algorithm = SplitAlgorithm::kHistogram;
  DecisionTreeClassifier te, th;
  ASSERT_TRUE(te.Fit(d, exact, 50).ok());
  ASSERT_TRUE(th.Fit(d, hist, 50).ok());
  ExpectStructurallyEqual(te, th, d);
}

TEST(HistogramEquivalenceTest, TreeMatchesExactWithFeatureSubsampling) {
  const Dataset d = GridValuedData(400, 25, 51);
  TreeParams exact;
  exact.split_algorithm = SplitAlgorithm::kExact;
  exact.max_features = 2;  // randomized feature draw, same rng stream
  TreeParams hist = exact;
  hist.split_algorithm = SplitAlgorithm::kHistogram;
  DecisionTreeClassifier te, th;
  ASSERT_TRUE(te.Fit(d, exact, 51).ok());
  ASSERT_TRUE(th.Fit(d, hist, 51).ok());
  ExpectStructurallyEqual(te, th, d);
}

TEST(HistogramEquivalenceTest, ForestMatchesExactOnFewDistinctValues) {
  const Dataset d = GridValuedData(500, 30, 52);
  ForestParams exact;
  exact.num_trees = 12;
  exact.split_algorithm = SplitAlgorithm::kExact;
  ForestParams hist = exact;
  hist.split_algorithm = SplitAlgorithm::kHistogram;
  RandomForestClassifier fe, fh;
  ASSERT_TRUE(fe.Fit(d, exact, 52).ok());
  ASSERT_TRUE(fh.Fit(d, hist, 52).ok());
  // Bagging and per-tree seeds line up, so per-tree partitions — and
  // hence gini importances — are bit-equal. Rows outside a tree's
  // bootstrap sample (OOB, and some rows at predict time) can land in
  // a gap where the two thresholds differ, so those comparisons get a
  // small tolerance.
  EXPECT_EQ(fe.num_trees(), fh.num_trees());
  const auto& ie = fe.feature_importances();
  const auto& ih = fh.feature_importances();
  ASSERT_EQ(ie.size(), ih.size());
  for (size_t f = 0; f < ie.size(); ++f) {
    EXPECT_DOUBLE_EQ(ie[f], ih[f]);
  }
  EXPECT_NEAR(fe.oob_accuracy(), fh.oob_accuracy(), 0.01);
  auto pe = fe.PredictBatch(d);
  auto ph = fh.PredictBatch(d);
  ASSERT_TRUE(pe.ok() && ph.ok());
  size_t agree = 0;
  for (size_t i = 0; i < pe->size(); ++i) {
    agree += (*pe)[i] == (*ph)[i] ? 1 : 0;
  }
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(pe->size()),
            0.99);
}

TEST(HistogramEquivalenceTest, ClassWeightedSplitsMatchExact) {
  const Dataset d = GridValuedData(500, 30, 53);
  TreeParams exact;
  exact.split_algorithm = SplitAlgorithm::kExact;
  // Power-of-two weights make weighted gini float-exact on both paths.
  exact.class_weights = {4.0, 1.0};
  TreeParams hist = exact;
  hist.split_algorithm = SplitAlgorithm::kHistogram;
  DecisionTreeClassifier te, th;
  ASSERT_TRUE(te.Fit(d, exact, 53).ok());
  ASSERT_TRUE(th.Fit(d, hist, 53).ok());
  ExpectStructurallyEqual(te, th, d);
  // And the weights actually bite: unweighted trees differ.
  TreeParams plain;
  plain.split_algorithm = SplitAlgorithm::kHistogram;
  DecisionTreeClassifier tp;
  ASSERT_TRUE(tp.Fit(d, plain, 53).ok());
  EXPECT_NE(tp.Serialize(), th.Serialize());
}

TEST(HistogramEquivalenceTest, AgreesWithExactOnContinuousData) {
  // > 256 distinct values per feature: quantile bins approximate the
  // exact cuts, so trees can differ, but predictions should rarely.
  const Dataset train = ContinuousData(3000, 54);
  const Dataset test = ContinuousData(3000, 55);
  ForestParams exact;
  exact.num_trees = 20;
  exact.max_depth = 10;
  exact.split_algorithm = SplitAlgorithm::kExact;
  ForestParams hist = exact;
  hist.split_algorithm = SplitAlgorithm::kHistogram;
  RandomForestClassifier fe, fh;
  ASSERT_TRUE(fe.Fit(train, exact, 54).ok());
  ASSERT_TRUE(fh.Fit(train, hist, 54).ok());
  auto pe = fe.PredictBatch(test);
  auto ph = fh.PredictBatch(test);
  ASSERT_TRUE(pe.ok() && ph.ok());
  size_t agree = 0;
  for (size_t i = 0; i < pe->size(); ++i) {
    agree += (*pe)[i] == (*ph)[i] ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(pe->size()),
            0.9);
}

TEST(HistogramDegenerateTest, SingleClassDataIsOneLeaf) {
  auto d = Dataset::Make({"x"}, {{1.0}, {2.0}, {3.0}, {4.0}},
                         {0, 0, 0, 0});
  ASSERT_TRUE(d.ok());
  TreeParams hist;
  hist.split_algorithm = SplitAlgorithm::kHistogram;
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(*d, hist, 1).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.Predict({2.5}), 0);
}

TEST(HistogramDegenerateTest, AllConstantFeaturesIsOneLeaf) {
  auto d = Dataset::Make({"c1", "c2"},
                         {{5.0, 9.0}, {5.0, 9.0}, {5.0, 9.0}, {5.0, 9.0}},
                         {0, 1, 1, 1});
  ASSERT_TRUE(d.ok());
  TreeParams hist;
  hist.split_algorithm = SplitAlgorithm::kHistogram;
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(*d, hist, 1).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.Predict({5.0, 9.0}), 1);  // majority
}

TEST(HistogramDegenerateTest, ConstantFeatureNeverChosen) {
  Rng rng(56);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Uniform(0.0, 1.0);
    rows.push_back({3.14, x});
    labels.push_back(x > 0.5 ? 1 : 0);
  }
  auto d = Dataset::Make({"const", "signal"}, std::move(rows),
                         std::move(labels));
  ASSERT_TRUE(d.ok());
  TreeParams hist;
  hist.split_algorithm = SplitAlgorithm::kHistogram;
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(*d, hist, 56).ok());
  const auto& imp = tree.feature_importances();
  EXPECT_DOUBLE_EQ(imp[0], 0.0);
  EXPECT_GT(imp[1], 0.0);
}

TEST(FitOnRowsTest, ViewTrainingMatchesSubsetCopy) {
  const Dataset d = GridValuedData(400, 20, 58);
  std::vector<size_t> rows;
  for (size_t i = 0; i < d.num_rows(); ++i) {
    if (i % 4 != 0) rows.push_back(i);
  }
  ForestParams params;
  params.num_trees = 10;
  RandomForestClassifier on_view, on_copy;
  ASSERT_TRUE(on_view.FitOnRows(d, rows, params, 58).ok());
  auto subset = d.Subset(rows);
  ASSERT_TRUE(subset.ok());
  ASSERT_TRUE(on_copy.Fit(*subset, params, 58).ok());
  EXPECT_EQ(on_view.Serialize(), on_copy.Serialize());
}

TEST(FitOnRowsTest, PredictRowsMatchesBatchOnView) {
  const Dataset d = ContinuousData(300, 59);
  ForestParams params;
  params.num_trees = 6;
  RandomForestClassifier forest;
  ASSERT_TRUE(forest.Fit(d, params, 59).ok());
  std::vector<size_t> rows = {5, 17, 42, 99, 250};
  auto via_rows = forest.PredictRows(d, rows);
  ASSERT_TRUE(via_rows.ok());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*via_rows)[i], forest.Predict(d.row(rows[i])));
  }
  EXPECT_FALSE(forest.PredictRows(d, {999}).ok());
}

// The sample entries of the multiset `draws` over `num_rows` rows.
std::vector<WeightedRow> Tally(size_t num_rows,
                               const std::vector<uint32_t>& draws) {
  return TallyRows(num_rows, draws.size(),
                   [&draws](size_t i) { return draws[i]; });
}

TEST(TallyRowsTest, CountsEachDistinctRowOnceInAscendingOrder) {
  const std::vector<WeightedRow> sample = Tally(6, {4, 1, 4, 0, 4, 1});
  ASSERT_EQ(sample.size(), 3u);
  EXPECT_EQ(sample[0].row, 0u);
  EXPECT_EQ(sample[0].weight, 1u);
  EXPECT_EQ(sample[1].row, 1u);
  EXPECT_EQ(sample[1].weight, 2u);
  EXPECT_EQ(sample[2].row, 4u);
  EXPECT_EQ(sample[2].weight, 3u);
  EXPECT_TRUE(Tally(3, {}).empty());
}

TEST(FitBinnedTest, RejectsInvalidArguments) {
  const Dataset d = ContinuousData(50, 60);
  auto binned = BinnedDataset::FromDataset(d);
  ASSERT_TRUE(binned.ok());
  DecisionTreeClassifier tree;
  const std::vector<WeightedRow> all =
      TallyRows(d.num_rows(), d.num_rows(), [](size_t i) { return i; });
  // Wrong label arity.
  EXPECT_FALSE(
      tree.FitBinned(*binned, {0, 1}, 2, all, TreeParams{}, 1).ok());
  // Position out of range.
  EXPECT_EQ(tree.FitBinned(*binned, d.labels(), 2, {{999, 1}}, TreeParams{},
                           1)
                .code(),
            StatusCode::kOutOfRange);
  // A zero weight, and weights summing past 2^32 - 1.
  EXPECT_EQ(tree.FitBinned(*binned, d.labels(), 2, {{0, 2}, {1, 0}},
                           TreeParams{}, 1),
            Status::InvalidArgument("sample weights must be positive"));
  EXPECT_EQ(tree.FitBinned(*binned, d.labels(), 2, {{0, UINT32_MAX}, {1, 1}},
                           TreeParams{}, 1),
            Status::InvalidArgument(
                "a tree sample holds at most 2^32 - 1 draws"));
  // Bad params.
  TreeParams bad;
  bad.min_samples_leaf = 0;
  EXPECT_FALSE(tree.FitBinned(*binned, d.labels(), 2, all, bad, 1).ok());
  // A sampled label outside [0, num_classes), negative or too large.
  for (int bad_label : {-1, 2}) {
    std::vector<int> labels = d.labels();
    labels[7] = bad_label;
    const Status s = tree.FitBinned(*binned, labels, 2, all, TreeParams{}, 1);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad_label;
  }
}

// 64-bit FNV-1a of a serialized model.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// 30 continuous features (far more than 256 distinct values each), three
// classes decided by a noisy rule over the first few features.
Dataset WideData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int f = 0; f < 30; ++f) {
    names.emplace_back("f");
    names.back() += std::to_string(f);
  }
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    std::vector<double> row(30);
    for (double& v : row) v = rng.Normal(0.0, 1.0);
    const double score = row[0] - 0.7 * row[1] + 0.5 * row[2] * row[3] +
                         rng.Normal(0.0, 0.8);
    rows.push_back(std::move(row));
    labels.push_back(score < -0.5 ? 0 : (score < 0.7 ? 1 : 2));
  }
  auto d = Dataset::Make(names, std::move(rows), std::move(labels));
  EXPECT_TRUE(d.ok());
  return *d;
}

uint64_t ForestDigest(const ForestParams& params) {
  const Dataset d = WideData(1500, 61);
  RandomForestClassifier forest;
  EXPECT_TRUE(forest.Fit(d, params, 61).ok());
  return Fnv1a(forest.Serialize());
}

ForestParams GoldenForestParams(MaxFeaturesRule rule) {
  ForestParams p;
  p.num_trees = 12;
  p.max_depth = 12;
  p.max_features = rule;
  p.num_threads = 3;
  p.split_algorithm = SplitAlgorithm::kHistogram;
  return p;
}

// Pinned Serialize() digests (trees, importances and OOB accuracy) of
// fixed-seed histogram models. Any change to split search, rng draws,
// thresholds or the OOB pass shows up here.
TEST(HistogramGoldenTest, ForestDigestsArePinned) {
  EXPECT_EQ(ForestDigest(GoldenForestParams(MaxFeaturesRule::kSqrt)),
            0x7db6ed417ed9fb6aull);
  EXPECT_EQ(ForestDigest(GoldenForestParams(MaxFeaturesRule::kLog2)),
            0x0d7f55894c76d75dull);
  EXPECT_EQ(ForestDigest(GoldenForestParams(MaxFeaturesRule::kAll)),
            0xdf72f082f3b927caull);
  ForestParams weighted = GoldenForestParams(MaxFeaturesRule::kSqrt);
  weighted.class_weights = {3.0, 1.0, 1.7};
  weighted.min_samples_leaf = 3;
  EXPECT_EQ(ForestDigest(weighted), 0x0ef6947d76f960ecull);
}

TEST(HistogramGoldenTest, StandaloneTreeDigestIsPinned) {
  const Dataset d = WideData(1500, 62);
  auto binned = BinnedDataset::FromDataset(d);
  ASSERT_TRUE(binned.ok());
  std::vector<uint32_t> positions;
  for (uint32_t i = 0; i < d.num_rows(); i += 2) positions.push_back(i);
  TreeParams params;
  params.max_features = 6;
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.FitBinned(*binned, d.labels(), 3,
                             Tally(d.num_rows(), positions), params, 62)
                  .ok());
  EXPECT_EQ(Fnv1a(tree.Serialize()), 0xdc59754958a198feull);
}

// Roots holding 255, 256 and 257 rows over 256-bin features: fewer
// node rows than bins (the occupied-bin sweep), exactly as many, and one
// more (the full sweep). Digests recorded before the occupied-bin sweep.
TEST(HistogramGoldenTest, RootsAroundTheBinCountArePinned) {
  const Dataset d = WideData(1500, 63);
  auto binned = BinnedDataset::FromDataset(d);
  ASSERT_TRUE(binned.ok());
  for (size_t f = 0; f < d.num_features(); ++f) {
    ASSERT_EQ(binned->num_bins(f), 256) << f;
  }
  TreeParams params;
  params.max_features = 6;
  const std::pair<size_t, uint64_t> cases[] = {{255, 0x0cd33964d2b1a4c6ull},
                                               {256, 0x04ef1da74a4b809cull},
                                               {257, 0xf1f4f76d1dc22b03ull}};
  for (const auto& [root_rows, digest] : cases) {
    std::vector<uint32_t> positions(root_rows);
    for (uint32_t i = 0; i < root_rows; ++i) positions[i] = (i * 5) % 1500;
    DecisionTreeClassifier tree;
    ASSERT_TRUE(tree.FitBinned(*binned, d.labels(), 3,
                               Tally(d.num_rows(), positions), params, 63)
                    .ok());
    EXPECT_EQ(Fnv1a(tree.Serialize()), digest) << root_rows;
  }
}

// WideData relabelled into two classes (class 2 against the rest).
Dataset TwoClassWideData(int n, uint64_t seed) {
  const Dataset wide = WideData(n, seed);
  std::vector<int> labels = wide.labels();
  for (int& label : labels) label = label == 2 ? 1 : 0;
  auto d = Dataset::Make(wide.feature_names(), wide.rows(),
                         std::move(labels));
  EXPECT_TRUE(d.ok());
  return *d;
}

// Serialize() digest of a FitBinned tree over the multiset `draws` of
// binned row positions. The same tree must come from one weight-1 entry
// per draw, as if every draw were a row of its own.
uint64_t DrawnTreeDigest(const BinnedDataset& binned,
                         const std::vector<int>& labels,
                         const std::vector<uint32_t>& draws,
                         const TreeParams& params, uint64_t seed) {
  DecisionTreeClassifier tree;
  EXPECT_TRUE(tree.FitBinned(binned, labels, 2,
                             Tally(binned.num_rows(), draws), params, seed)
                  .ok());
  std::vector<WeightedRow> unit_rows;
  for (uint32_t draw : draws) unit_rows.push_back({draw, 1});
  DecisionTreeClassifier unit_tree;
  EXPECT_TRUE(
      unit_tree.FitBinned(binned, labels, 2, unit_rows, params, seed).ok());
  EXPECT_EQ(tree.Serialize(), unit_tree.Serialize());
  return Fnv1a(tree.Serialize());
}

// Samples where rows repeat many times: one row drawn 1,200 times next
// to 150 or 400 uniform draws (so a node can hold fewer distinct rows
// than bins but more draws than bins), with and without unequal class
// weights and a leaf minimum the draws must reach.
TEST(HistogramGoldenTest, HeavyMultiplicityTreeDigestsArePinned) {
  const Dataset d = TwoClassWideData(1500, 67);
  auto binned = BinnedDataset::FromDataset(d);
  ASSERT_TRUE(binned.ok());
  TreeParams plain;
  plain.max_features = 6;
  TreeParams weighted = plain;
  weighted.class_weights = {0.3, 0.7};
  weighted.min_samples_leaf = 5;
  const std::pair<size_t, std::pair<uint64_t, uint64_t>> cases[] = {
      {150, {0xd8ce0774e4122ca9ull, 0x082b2846a7b41945ull}},
      {400, {0xa1042854a5375411ull, 0x74b02fedb63ef83bull}}};
  for (const auto& [uniform_draws, digests] : cases) {
    std::vector<uint32_t> draws(1200, 11);
    Rng rng(67);
    for (size_t i = 0; i < uniform_draws; ++i) {
      draws.push_back(static_cast<uint32_t>(rng.UniformInt(0, 1499)));
    }
    EXPECT_EQ(DrawnTreeDigest(*binned, d.labels(), draws, plain, 67),
              digests.first)
        << uniform_draws;
    EXPECT_EQ(DrawnTreeDigest(*binned, d.labels(), draws, weighted, 67),
              digests.second)
        << uniform_draws;
  }
}

// A 300-row view drawn with replacement, 300 times (a bootstrap) and
// 3,000 times (every row about ten times), under class weights
// {0.3, 0.7}.
TEST(HistogramGoldenTest, ViewBootstrapTreeDigestsArePinned) {
  const Dataset d = TwoClassWideData(1500, 68);
  std::vector<size_t> rows;
  for (size_t i = 0; i < d.num_rows(); i += 5) rows.push_back(i);
  auto binned = BinnedDataset::FromDatasetRows(d, rows);
  ASSERT_TRUE(binned.ok());
  std::vector<int> labels;
  for (size_t r : rows) labels.push_back(d.label(r));
  TreeParams params;
  params.max_features = 6;
  params.class_weights = {0.3, 0.7};
  const std::pair<size_t, uint64_t> cases[] = {{300, 0x04b91a85c7993789ull},
                                               {3000, 0xd1026baf05e510b3ull}};
  for (const auto& [num_draws, digest] : cases) {
    Rng rng(68);
    std::vector<uint32_t> draws(num_draws);
    for (uint32_t& draw : draws) {
      draw = static_cast<uint32_t>(rng.UniformInt(0, 299));
    }
    EXPECT_EQ(DrawnTreeDigest(*binned, labels, draws, params, 68), digest)
        << num_draws;
  }
}

// The exact split search under unequal class weights sums each node's
// weight in sample order, so this pins the order its bootstrap rows
// arrive in as well as its splits.
TEST(ExactGoldenTest, ClassWeightedForestDigestIsPinned) {
  const Dataset d = TwoClassWideData(600, 69);
  ForestParams params = GoldenForestParams(MaxFeaturesRule::kSqrt);
  params.num_trees = 8;
  params.max_depth = 10;
  params.split_algorithm = SplitAlgorithm::kExact;
  params.class_weights = {0.3, 0.7};
  RandomForestClassifier forest;
  ASSERT_TRUE(forest.Fit(d, params, 69).ok());
  EXPECT_EQ(Fnv1a(forest.Serialize()), 0xb189f0adb49b928eull);
}

// FitOnRows' out-of-bag accuracy, which reads each tree's in-bag mask.
TEST(FitOnRowsTest, OobAccuracyIsPinned) {
  const Dataset d = WideData(900, 70);
  std::vector<size_t> rows;
  for (size_t i = 0; i < d.num_rows(); ++i) {
    if (i % 3 != 1) rows.push_back(i);
  }
  ForestParams params = GoldenForestParams(MaxFeaturesRule::kSqrt);
  params.num_trees = 9;
  RandomForestClassifier forest;
  ASSERT_TRUE(forest.FitOnRows(d, rows, params, 70).ok());
  EXPECT_EQ(forest.oob_accuracy(), 0.49403747870528109);
}

// Views shaped like the service's model slots: every row, then three
// disjoint subsets of different sizes.
std::vector<std::vector<size_t>> SlotLikeViews(size_t num_rows) {
  std::vector<std::vector<size_t>> views(4);
  for (size_t i = 0; i < num_rows; ++i) {
    views[0].push_back(i);
    views[1 + (i % 7 == 0 ? 2 : i % 2)].push_back(i);
  }
  return views;
}

TEST(FitForestsTest, EachJobMatchesFitOnRows) {
  const Dataset d = WideData(600, 64);
  const std::vector<std::vector<size_t>> views = SlotLikeViews(d.num_rows());
  const uint64_t seeds[] = {64, 65, 66, 64};
  for (SplitAlgorithm algorithm :
       {SplitAlgorithm::kHistogram, SplitAlgorithm::kExact}) {
    ForestParams params = GoldenForestParams(MaxFeaturesRule::kSqrt);
    params.num_trees = 7;
    params.split_algorithm = algorithm;
    params.num_threads = 1;
    std::vector<RandomForestClassifier> alone(views.size());
    for (size_t j = 0; j < views.size(); ++j) {
      ASSERT_TRUE(alone[j].FitOnRows(d, views[j], params, seeds[j]).ok());
    }
    for (int threads : {1, 2, 5}) {
      params.num_threads = threads;
      std::vector<RandomForestClassifier> forests(views.size());
      std::vector<ForestJob> jobs;
      for (size_t j = 0; j < views.size(); ++j) {
        jobs.push_back({&views[j], seeds[j], &forests[j]});
      }
      ASSERT_TRUE(RandomForestClassifier::FitForests(d, params, jobs).ok());
      for (size_t j = 0; j < views.size(); ++j) {
        ASSERT_EQ(forests[j].num_trees(), alone[j].num_trees());
        for (size_t ti = 0; ti < alone[j].num_trees(); ++ti) {
          EXPECT_EQ(forests[j].trees()[ti].Serialize(),
                    alone[j].trees()[ti].Serialize())
              << "threads " << threads << " job " << j << " tree " << ti;
        }
        EXPECT_EQ(forests[j].feature_importances(),
                  alone[j].feature_importances());
        EXPECT_EQ(forests[j].oob_accuracy(), 0.0);
      }
    }
  }
}

TEST(FitForestsTest, OutOfRangeRowFailsAndFitsNothing) {
  const Dataset d = GridValuedData(100, 10, 65);
  std::vector<size_t> all(d.num_rows());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::vector<size_t> bad = {0, 5, d.num_rows()};
  ForestParams params;
  params.num_trees = 4;
  RandomForestClassifier first, second;
  std::vector<ForestJob> jobs = {{&all, 1, &first}, {&bad, 2, &second}};
  const Status s = RandomForestClassifier::FitForests(d, params, jobs);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(first.fitted());
  EXPECT_FALSE(second.fitted());
}

// Class weights of the wrong arity pass job validation and fail every
// tree fit in the shared queue: the fit fails and leaves no forest
// half-fitted, on either split path and at any thread count.
TEST(FitForestsTest, TreeFitFailureFitsNothing) {
  const Dataset d = WideData(300, 66);
  const std::vector<std::vector<size_t>> views = SlotLikeViews(d.num_rows());
  for (SplitAlgorithm algorithm :
       {SplitAlgorithm::kHistogram, SplitAlgorithm::kExact}) {
    ForestParams params = GoldenForestParams(MaxFeaturesRule::kSqrt);
    params.num_trees = 5;
    params.split_algorithm = algorithm;
    params.class_weights = {1.0, 2.0};
    for (int threads : {1, 2, 5}) {
      params.num_threads = threads;
      std::vector<RandomForestClassifier> forests(views.size());
      std::vector<ForestJob> jobs;
      for (size_t j = 0; j < views.size(); ++j) {
        jobs.push_back({&views[j], 70 + j, &forests[j]});
      }
      const Status s = RandomForestClassifier::FitForests(d, params, jobs);
      EXPECT_EQ(s, Status::InvalidArgument(
                       "class_weights size must match num_classes"))
          << threads;
      for (const auto& forest : forests) EXPECT_FALSE(forest.fitted());
    }
  }
}

}  // namespace
}  // namespace cloudsurv::ml
