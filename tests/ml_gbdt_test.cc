#include <cmath>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"
#include "ml/permutation_importance.h"
#include "ml/random_forest.h"
#include "tests/ml_test_util.h"

namespace cloudsurv::ml {
namespace {

Dataset ThresholdData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(0.0, 6.0);
    rows.push_back({x0, rng.Uniform(0.0, 1.0)});
    labels.push_back(x0 > 3.0 ? 1 : 0);
  }
  return *Dataset::Make({"signal", "noise"}, std::move(rows),
                        std::move(labels));
}

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
  return *Dataset::Make({"a", "b"}, std::move(rows), std::move(labels));
}

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
  return *Dataset::Make({"x", "noise"}, std::move(rows), std::move(labels));
}

TEST(GbdtTest, LearnsThresholdTask) {
  const Dataset d = ThresholdData(800, 1);
  GradientBoostedTreesClassifier model;
  GbdtParams params;
  params.num_rounds = 60;
  ASSERT_TRUE(model.Fit(d, params, 1).ok());
  auto preds = model.PredictBatch(d);
  ASSERT_TRUE(preds.ok());
  auto scores = ComputeScores(d.labels(), *preds);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->accuracy, 0.98);
}

TEST(GbdtTest, LearnsXor) {
  const Dataset d = XorData(1200, 2);
  GradientBoostedTreesClassifier model;
  GbdtParams params;
  params.num_rounds = 80;
  params.max_depth = 3;
  ASSERT_TRUE(model.Fit(d, params, 2).ok());
  auto preds = model.PredictBatch(d);
  ASSERT_TRUE(preds.ok());
  auto scores = ComputeScores(d.labels(), *preds);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->accuracy, 0.95);
}

TEST(GbdtTest, TrainingLossDecreasesMonotonically) {
  const Dataset d = NoisyData(600, 3);
  GradientBoostedTreesClassifier model;
  GbdtParams params;
  params.num_rounds = 40;
  ASSERT_TRUE(model.Fit(d, params, 3).ok());
  const auto& loss = model.training_loss();
  ASSERT_EQ(loss.size(), 40u);
  for (size_t i = 1; i < loss.size(); ++i) {
    EXPECT_LE(loss[i], loss[i - 1] + 1e-9) << "round " << i;
  }
}

TEST(GbdtTest, ProbabilitiesInUnitIntervalAndCalibratedPrior) {
  // With zero rounds of meaningful structure (depth 0 trees would be
  // leaves), predictions should hover near the class prior.
  const Dataset d = NoisyData(2000, 4);
  GradientBoostedTreesClassifier model;
  GbdtParams params;
  params.num_rounds = 1;
  params.max_depth = 0;  // single-leaf tree: only the prior moves
  ASSERT_TRUE(model.Fit(d, params, 4).ok());
  const double p = model.PredictProbability(d.row(0));
  EXPECT_GT(p, 0.3);
  EXPECT_LT(p, 0.7);
  auto probs = model.PredictPositiveProba(d);
  ASSERT_TRUE(probs.ok());
  for (double v : *probs) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(GbdtTest, ImportancesFavorSignal) {
  const Dataset d = ThresholdData(1000, 5);
  GradientBoostedTreesClassifier model;
  ASSERT_TRUE(model.Fit(d, GbdtParams{}, 5).ok());
  const auto& imp = model.feature_importances();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_GT(imp[0], 0.9);
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
}

TEST(GbdtTest, SubsamplingStillLearns) {
  const Dataset d = ThresholdData(1000, 6);
  GradientBoostedTreesClassifier model;
  GbdtParams params;
  params.subsample = 0.5;
  params.num_rounds = 80;
  ASSERT_TRUE(model.Fit(d, params, 6).ok());
  auto preds = model.PredictBatch(d);
  ASSERT_TRUE(preds.ok());
  auto scores = ComputeScores(d.labels(), *preds);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->accuracy, 0.95);
}

TEST(GbdtTest, DeterministicPerSeed) {
  const Dataset d = NoisyData(400, 7);
  GbdtParams params;
  params.num_rounds = 20;
  params.subsample = 0.7;
  GradientBoostedTreesClassifier m1, m2;
  ASSERT_TRUE(m1.Fit(d, params, 9).ok());
  ASSERT_TRUE(m2.Fit(d, params, 9).ok());
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(m1.PredictLogit(d.row(i)), m2.PredictLogit(d.row(i)));
  }
}

TEST(GbdtTest, RejectsInvalidInputs) {
  GradientBoostedTreesClassifier model;
  EXPECT_FALSE(model.Fit(Dataset(), GbdtParams{}, 1).ok());
  const Dataset d = NoisyData(50, 8);
  GbdtParams bad;
  bad.num_rounds = 0;
  EXPECT_FALSE(model.Fit(d, bad, 1).ok());
  bad = GbdtParams{};
  bad.subsample = 0.0;
  EXPECT_FALSE(model.Fit(d, bad, 1).ok());
  EXPECT_FALSE(model.PredictBatch(d).ok());  // not fitted
  auto multi = Dataset::Make({"x", "noise"}, {{0.0, 0.0}}, {0}, 3);
  EXPECT_FALSE(model.Fit(*multi, GbdtParams{}, 1).ok());
}

TEST(GbdtTest, ComparableToForestOnNoisyTask) {
  const Dataset train = NoisyData(2000, 10);
  const Dataset test = NoisyData(2000, 11);
  GradientBoostedTreesClassifier gbdt;
  GbdtParams gparams;
  gparams.num_rounds = 120;
  ASSERT_TRUE(gbdt.Fit(train, gparams, 10).ok());
  RandomForestClassifier forest;
  ForestParams fparams;
  fparams.num_trees = 80;
  ASSERT_TRUE(forest.Fit(train, fparams, 10).ok());
  auto gp = gbdt.PredictBatch(test);
  ASSERT_TRUE(gp.ok());
  const double ga = ComputeScores(test.labels(), *gp)->accuracy;
  const double fa =
      ComputeScores(test.labels(), testing::ForestLabels(forest, test))
          ->accuracy;
  // Both close to the Bayes limit; neither collapses.
  EXPECT_GT(ga, 0.60);
  EXPECT_GT(fa, 0.60);
  EXPECT_NEAR(ga, fa, 0.08);
}

TEST(PermutationImportanceTest, SignalOutranksNoise) {
  const Dataset train = ThresholdData(800, 12);
  const Dataset test = ThresholdData(800, 13);
  RandomForestClassifier forest;
  ForestParams params;
  params.num_trees = 25;
  ASSERT_TRUE(forest.Fit(train, params, 12).ok());

  ModelScorer scorer = [&](const Dataset& d) -> Result<double> {
    CLOUDSURV_ASSIGN_OR_RETURN(
        ClassificationScores scores,
        ComputeScores(d.labels(), testing::ForestLabels(forest, d)));
    return scores.accuracy;
  };
  auto result = ComputePermutationImportance(test, scorer, 3, 99);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->baseline_score, 0.95);
  EXPECT_GT(result->importances[0], 0.3);   // signal feature essential
  EXPECT_NEAR(result->importances[1], 0.0, 0.03);  // noise feature inert
}

TEST(PermutationImportanceTest, RejectsInvalidInputs) {
  ModelScorer dummy = [](const Dataset&) -> Result<double> { return 1.0; };
  EXPECT_FALSE(ComputePermutationImportance(Dataset(), dummy, 3, 1).ok());
  const Dataset d = ThresholdData(20, 14);
  EXPECT_FALSE(ComputePermutationImportance(d, dummy, 0, 1).ok());
}

}  // namespace
}  // namespace cloudsurv::ml
