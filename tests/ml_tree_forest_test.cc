#include <cmath>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "ml/cross_validation.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"

namespace cloudsurv::ml {
namespace {

// Axis-aligned separable data: label = x0 > 3.
Dataset ThresholdData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(0.0, 6.0);
    const double x1 = rng.Uniform(0.0, 1.0);  // noise feature
    rows.push_back({x0, x1});
    labels.push_back(x0 > 3.0 ? 1 : 0);
  }
  auto d = Dataset::Make({"signal", "noise"}, std::move(rows),
                         std::move(labels));
  EXPECT_TRUE(d.ok());
  return *d;
}

// XOR of two thresholds: needs depth >= 2.
Dataset XorData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    const double a = rng.Uniform(0.0, 1.0);
    const double b = rng.Uniform(0.0, 1.0);
    rows.push_back({a, b});
    labels.push_back((a > 0.5) != (b > 0.5) ? 1 : 0);
  }
  auto d = Dataset::Make({"a", "b"}, std::move(rows), std::move(labels));
  EXPECT_TRUE(d.ok());
  return *d;
}

// Noisy overlapping Gaussians; Bayes accuracy well below 1.
Dataset NoisyData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    const int label = rng.Bernoulli(0.5) ? 1 : 0;
    rows.push_back({rng.Normal(label == 1 ? 1.0 : 0.0, 1.0),
                    rng.Normal(0.0, 1.0)});
    labels.push_back(label);
  }
  auto d = Dataset::Make({"x", "noise"}, std::move(rows), std::move(labels));
  EXPECT_TRUE(d.ok());
  return *d;
}

TEST(DecisionTreeTest, LearnsAxisThresholdPerfectly) {
  const Dataset d = ThresholdData(500, 1);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(d, TreeParams{}, 1).ok());
  auto preds = tree.PredictBatch(d);
  ASSERT_TRUE(preds.ok());
  auto scores = ComputeScores(d.labels(), *preds);
  ASSERT_TRUE(scores.ok());
  EXPECT_DOUBLE_EQ(scores->accuracy, 1.0);
}

TEST(DecisionTreeTest, LearnsXorWithDepthTwo) {
  const Dataset d = XorData(800, 2);
  DecisionTreeClassifier tree;
  TreeParams params;
  params.max_depth = 4;
  ASSERT_TRUE(tree.Fit(d, params, 2).ok());
  auto preds = tree.PredictBatch(d);
  ASSERT_TRUE(preds.ok());
  auto scores = ComputeScores(d.labels(), *preds);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->accuracy, 0.97);
}

TEST(DecisionTreeTest, DepthZeroIsMajorityLeaf) {
  const Dataset d = ThresholdData(100, 3);
  DecisionTreeClassifier tree;
  TreeParams params;
  params.max_depth = 0;
  ASSERT_TRUE(tree.Fit(d, params, 3).ok());
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.depth(), 0);
  const auto probs = tree.PredictProba({0.0, 0.0});
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-12);
}

TEST(DecisionTreeTest, RespectsMinSamplesLeaf) {
  const Dataset d = ThresholdData(60, 4);
  DecisionTreeClassifier tree;
  TreeParams params;
  params.min_samples_leaf = 25;
  ASSERT_TRUE(tree.Fit(d, params, 4).ok());
  // With 60 samples and min leaf 25, at most one split is possible.
  EXPECT_LE(tree.num_nodes(), 3u);
}

TEST(DecisionTreeTest, ImportancesConcentrateOnSignal) {
  const Dataset d = ThresholdData(1000, 5);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(d, TreeParams{}, 5).ok());
  const auto& imp = tree.feature_importances();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_GT(imp[0], 0.9);
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
}

TEST(DecisionTreeTest, ProbabilitiesSumToOne) {
  const Dataset d = NoisyData(400, 6);
  DecisionTreeClassifier tree;
  TreeParams params;
  params.max_depth = 3;
  ASSERT_TRUE(tree.Fit(d, params, 6).ok());
  for (size_t i = 0; i < 50; ++i) {
    const auto probs = tree.PredictProba(d.row(i));
    double total = 0.0;
    for (double p : probs) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(DecisionTreeTest, DeterministicForSeed) {
  const Dataset d = NoisyData(300, 7);
  TreeParams params;
  params.max_features = 1;  // randomized feature choice
  DecisionTreeClassifier t1, t2;
  ASSERT_TRUE(t1.Fit(d, params, 99).ok());
  ASSERT_TRUE(t2.Fit(d, params, 99).ok());
  EXPECT_EQ(t1.num_nodes(), t2.num_nodes());
  auto p1 = t1.PredictBatch(d);
  auto p2 = t2.PredictBatch(d);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(*p1, *p2);
}

TEST(DecisionTreeTest, RejectsInvalidInputs) {
  DecisionTreeClassifier tree;
  EXPECT_FALSE(tree.Fit(Dataset(), TreeParams{}, 1).ok());
  const Dataset d = ThresholdData(10, 8);
  TreeParams bad;
  bad.min_samples_leaf = 0;
  EXPECT_FALSE(tree.Fit(d, bad, 1).ok());
  EXPECT_FALSE(tree.FitSubset(d, {999}, TreeParams{}, 1).ok());
  EXPECT_FALSE(tree.PredictBatch(d).ok());  // not fitted
}

TEST(DecisionTreeTest, MulticlassLeaves) {
  auto d = Dataset::Make({"x"},
                         {{0.0}, {0.1}, {1.0}, {1.1}, {2.0}, {2.1}},
                         {0, 0, 1, 1, 2, 2});
  ASSERT_TRUE(d.ok());
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(*d, TreeParams{}, 1).ok());
  EXPECT_EQ(tree.Predict({0.05}), 0);
  EXPECT_EQ(tree.Predict({1.05}), 1);
  EXPECT_EQ(tree.Predict({2.05}), 2);
}

TEST(RandomForestTest, BeatsSingleTreeOnNoisyData) {
  const Dataset train = NoisyData(1500, 10);
  const Dataset test = NoisyData(1500, 11);
  ForestParams params;
  params.num_trees = 60;
  params.max_depth = 10;
  RandomForestClassifier forest;
  ASSERT_TRUE(forest.Fit(train, params, 10).ok());
  auto preds = forest.PredictBatch(test);
  ASSERT_TRUE(preds.ok());
  auto scores = ComputeScores(test.labels(), *preds);
  ASSERT_TRUE(scores.ok());
  // Bayes accuracy here is Phi(0.5) ~= 0.69.
  EXPECT_GT(scores->accuracy, 0.60);
}

TEST(RandomForestTest, PerfectOnSeparableData) {
  const Dataset d = ThresholdData(600, 12);
  ForestParams params;
  params.num_trees = 20;
  RandomForestClassifier forest;
  ASSERT_TRUE(forest.Fit(d, params, 12).ok());
  auto preds = forest.PredictBatch(d);
  ASSERT_TRUE(preds.ok());
  auto scores = ComputeScores(d.labels(), *preds);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->accuracy, 0.99);
}

TEST(RandomForestTest, ProbabilitiesAreAverages) {
  const Dataset d = NoisyData(300, 13);
  ForestParams params;
  params.num_trees = 7;
  RandomForestClassifier forest;
  ASSERT_TRUE(forest.Fit(d, params, 13).ok());
  const auto row = d.row(0);
  std::vector<double> manual(2, 0.0);
  for (const auto& tree : forest.trees()) {
    const auto p = tree.PredictProba(row);
    manual[0] += p[0];
    manual[1] += p[1];
  }
  manual[0] /= 7.0;
  manual[1] /= 7.0;
  const auto probs = forest.PredictProba(row);
  EXPECT_NEAR(probs[0], manual[0], 1e-12);
  EXPECT_NEAR(probs[1], manual[1], 1e-12);
}

TEST(RandomForestTest, DeterministicAcrossThreadCounts) {
  const Dataset d = NoisyData(400, 14);
  ForestParams p1;
  p1.num_trees = 16;
  p1.num_threads = 1;
  ForestParams p4 = p1;
  p4.num_threads = 4;
  RandomForestClassifier f1, f4;
  ASSERT_TRUE(f1.Fit(d, p1, 77).ok());
  ASSERT_TRUE(f4.Fit(d, p4, 77).ok());
  EXPECT_EQ(f1.Serialize(), f4.Serialize());  // includes OOB accuracy
  auto r1 = f1.PredictPositiveProba(d);
  auto r4 = f4.PredictPositiveProba(d);
  ASSERT_TRUE(r1.ok() && r4.ok());
  for (size_t i = 0; i < r1->size(); ++i) {
    EXPECT_DOUBLE_EQ((*r1)[i], (*r4)[i]);
  }
}

TEST(RandomForestTest, OobAccuracyTracksTestAccuracy) {
  const Dataset train = NoisyData(1200, 15);
  const Dataset test = NoisyData(1200, 16);
  ForestParams params;
  params.num_trees = 50;
  params.max_depth = 8;
  RandomForestClassifier forest;
  ASSERT_TRUE(forest.Fit(train, params, 15).ok());
  auto preds = forest.PredictBatch(test);
  ASSERT_TRUE(preds.ok());
  auto scores = ComputeScores(test.labels(), *preds);
  ASSERT_TRUE(scores.ok());
  EXPECT_NEAR(forest.oob_accuracy(), scores->accuracy, 0.06);
}

TEST(RandomForestTest, ImportancesDetectSignalFeature) {
  const Dataset d = ThresholdData(800, 17);
  ForestParams params;
  params.num_trees = 30;
  RandomForestClassifier forest;
  ASSERT_TRUE(forest.Fit(d, params, 17).ok());
  const auto& imp = forest.feature_importances();
  EXPECT_GT(imp[0], imp[1] * 5.0);
}

TEST(RandomForestTest, MaxFeaturesRules) {
  const Dataset d = NoisyData(200, 18);
  for (auto rule : {MaxFeaturesRule::kSqrt, MaxFeaturesRule::kLog2,
                    MaxFeaturesRule::kAll}) {
    ForestParams params;
    params.num_trees = 5;
    params.max_features = rule;
    RandomForestClassifier forest;
    EXPECT_TRUE(forest.Fit(d, params, 18).ok());
    EXPECT_EQ(forest.num_trees(), 5u);
  }
}

TEST(RandomForestTest, RejectsInvalidInputsAndStates) {
  RandomForestClassifier forest;
  EXPECT_FALSE(forest.Fit(Dataset(), ForestParams{}, 1).ok());
  const Dataset d = NoisyData(50, 19);
  ForestParams bad;
  bad.num_trees = 0;
  EXPECT_FALSE(forest.Fit(d, bad, 1).ok());
  EXPECT_FALSE(forest.PredictBatch(d).ok());
  ForestParams ok;
  ok.num_trees = 3;
  ASSERT_TRUE(forest.Fit(d, ok, 1).ok());
  auto multi = Dataset::Make({"x", "noise"}, {{0.0, 0.0}}, {0}, 3);
  ASSERT_TRUE(multi.ok());
  RandomForestClassifier mf;
  ASSERT_TRUE(mf.Fit(*multi, ok, 1).ok());
  EXPECT_FALSE(mf.PredictPositiveProba(*multi).ok());  // not binary
}

TEST(RandomForestTest, NoBootstrapUsesAllRows) {
  const Dataset d = ThresholdData(300, 20);
  ForestParams params;
  params.num_trees = 5;
  params.bootstrap = false;
  RandomForestClassifier forest;
  ASSERT_TRUE(forest.Fit(d, params, 20).ok());
  EXPECT_DOUBLE_EQ(forest.oob_accuracy(), 0.0);  // undefined w/o bootstrap
  auto preds = forest.PredictBatch(d);
  ASSERT_TRUE(preds.ok());
  auto scores = ComputeScores(d.labels(), *preds);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->accuracy, 0.99);
}

// Imbalanced noisy data: 15% positive.
Dataset ImbalancedData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    const int label = rng.Bernoulli(0.15) ? 1 : 0;
    rows.push_back({rng.Normal(label * 1.2, 1.0), rng.Normal(0.0, 1.0)});
    labels.push_back(label);
  }
  return *Dataset::Make({"x", "noise"}, std::move(rows),
                        std::move(labels));
}

TEST(ClassWeightTest, BalancedWeightsRaiseMinorityRecall) {
  const Dataset train = ImbalancedData(3000, 30);
  const Dataset test = ImbalancedData(3000, 31);
  ForestParams plain;
  plain.num_trees = 40;
  plain.max_depth = 10;
  ForestParams balanced = plain;
  balanced.class_weights = {1.0 / 0.85, 1.0 / 0.15};

  RandomForestClassifier f_plain, f_balanced;
  ASSERT_TRUE(f_plain.Fit(train, plain, 30).ok());
  ASSERT_TRUE(f_balanced.Fit(train, balanced, 30).ok());
  auto p_plain = f_plain.PredictBatch(test);
  auto p_balanced = f_balanced.PredictBatch(test);
  ASSERT_TRUE(p_plain.ok() && p_balanced.ok());
  const auto s_plain = *ComputeScores(test.labels(), *p_plain);
  const auto s_balanced = *ComputeScores(test.labels(), *p_balanced);
  // Weighting trades precision for a substantial recall gain on the
  // minority class.
  EXPECT_GT(s_balanced.recall, s_plain.recall + 0.1);
  EXPECT_LT(s_balanced.precision, s_plain.precision);
}

TEST(ClassWeightTest, RejectsInvalidWeights) {
  const Dataset d = ImbalancedData(100, 32);
  DecisionTreeClassifier tree;
  TreeParams bad;
  bad.class_weights = {1.0};  // wrong arity for a binary problem
  EXPECT_FALSE(tree.Fit(d, bad, 1).ok());
  bad.class_weights = {1.0, 0.0};  // non-positive
  EXPECT_FALSE(tree.Fit(d, bad, 1).ok());
}

TEST(ClassWeightTest, UniformWeightsMatchUnweighted) {
  const Dataset d = NoisyData(400, 33);
  TreeParams plain;
  TreeParams uniform;
  uniform.class_weights = {1.0, 1.0};
  DecisionTreeClassifier t1, t2;
  ASSERT_TRUE(t1.Fit(d, plain, 5).ok());
  ASSERT_TRUE(t2.Fit(d, uniform, 5).ok());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(t1.Predict(d.row(i)), t2.Predict(d.row(i)));
  }
}

/// Property sweep: forest accuracy on the threshold task is high for a
/// range of tree counts.
class ForestSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(ForestSizeTest, AccurateForAnySize) {
  const Dataset train = ThresholdData(400, 21);
  const Dataset test = ThresholdData(400, 22);
  ForestParams params;
  params.num_trees = GetParam();
  RandomForestClassifier forest;
  ASSERT_TRUE(forest.Fit(train, params, 21).ok());
  auto preds = forest.PredictBatch(test);
  ASSERT_TRUE(preds.ok());
  auto scores = ComputeScores(test.labels(), *preds);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->accuracy, 0.95) << "trees=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestSizeTest,
                         ::testing::Values(1, 5, 25, 100));

}  // namespace
}  // namespace cloudsurv::ml
