#include <algorithm>
#include <set>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "ml/cross_validation.h"

namespace cloudsurv::ml {
namespace {

// Two overlapping features and a 35% positive class, so fold accuracies
// sit well below 1 and move with any change to a split or a vote.
Dataset TwoFeatureData(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    const int label = rng.Bernoulli(0.35) ? 1 : 0;
    const double a = rng.Normal(label * 1.2, 1.0);
    const double b = rng.Normal(label * 0.6, 1.5) + 0.3 * a;
    rows.push_back({a, b});
    labels.push_back(label);
  }
  auto d = Dataset::Make({"a", "b"}, std::move(rows), std::move(labels));
  EXPECT_TRUE(d.ok());
  return *d;
}

// The pinned grid: a shallow cell, a deep min-leaf cell and a
// class-weighted cell.
std::vector<ForestParams> GoldenGrid() {
  std::vector<ForestParams> grid(3);
  grid[0].num_trees = 9;
  grid[0].max_depth = 3;
  grid[1].num_trees = 11;
  grid[1].max_depth = 12;
  grid[1].min_samples_leaf = 3;
  grid[2].num_trees = 10;
  grid[2].max_depth = 8;
  grid[2].class_weights = {1.0, 1.8};
  return grid;
}

Dataset LabeledData(int n, double positive_fraction, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    const int label = rng.Bernoulli(positive_fraction) ? 1 : 0;
    rows.push_back({rng.Normal(label * 2.0, 1.0)});
    labels.push_back(label);
  }
  auto d = Dataset::Make({"x"}, std::move(rows), std::move(labels));
  EXPECT_TRUE(d.ok());
  return *d;
}

TEST(TrainTestSplitTest, PartitionsAllRowsExactlyOnce) {
  const Dataset d = LabeledData(100, 0.4, 1);
  auto split = TrainTestSplit(d, 0.2, 1);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split->train.size() + split->test.size(), 100u);
  std::set<size_t> all(split->train.begin(), split->train.end());
  all.insert(split->test.begin(), split->test.end());
  EXPECT_EQ(all.size(), 100u);
}

TEST(TrainTestSplitTest, TestFractionApproximatelyRespected) {
  const Dataset d = LabeledData(1000, 0.5, 2);
  auto split = TrainTestSplit(d, 0.2, 2);
  ASSERT_TRUE(split.ok());
  EXPECT_NEAR(static_cast<double>(split->test.size()) / 1000.0, 0.2, 0.01);
}

TEST(TrainTestSplitTest, StratificationPreservesClassBalance) {
  const Dataset d = LabeledData(2000, 0.3, 3);
  auto split = TrainTestSplit(d, 0.25, 3, /*stratified=*/true);
  ASSERT_TRUE(split.ok());
  auto rate = [&](const std::vector<size_t>& idx) {
    double pos = 0;
    for (size_t i : idx) pos += d.label(i);
    return pos / static_cast<double>(idx.size());
  };
  EXPECT_NEAR(rate(split->train), rate(split->test), 0.02);
}

TEST(TrainTestSplitTest, DifferentSeedsGiveDifferentSplits) {
  const Dataset d = LabeledData(200, 0.5, 4);
  auto s1 = TrainTestSplit(d, 0.3, 100);
  auto s2 = TrainTestSplit(d, 0.3, 200);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_NE(s1->test, s2->test);
  auto s1_again = TrainTestSplit(d, 0.3, 100);
  ASSERT_TRUE(s1_again.ok());
  EXPECT_EQ(s1->test, s1_again->test);  // deterministic per seed
}

TEST(TrainTestSplitTest, RejectsBadFractions) {
  const Dataset d = LabeledData(10, 0.5, 5);
  EXPECT_FALSE(TrainTestSplit(d, 0.0, 1).ok());
  EXPECT_FALSE(TrainTestSplit(d, 1.0, 1).ok());
  EXPECT_FALSE(TrainTestSplit(Dataset(), 0.2, 1).ok());
}

TEST(KFoldTest, FoldsPartitionRows) {
  const Dataset d = LabeledData(103, 0.4, 6);
  auto folds = KFoldSplit(d, 5, 6);
  ASSERT_TRUE(folds.ok());
  ASSERT_EQ(folds->size(), 5u);
  std::set<size_t> validation_union;
  for (const Fold& fold : *folds) {
    EXPECT_EQ(fold.train.size() + fold.validation.size(), 103u);
    for (size_t i : fold.validation) {
      EXPECT_TRUE(validation_union.insert(i).second)
          << "row " << i << " in two validation folds";
    }
    // No overlap between train and validation inside one fold.
    std::set<size_t> train_set(fold.train.begin(), fold.train.end());
    for (size_t i : fold.validation) {
      EXPECT_EQ(train_set.count(i), 0u);
    }
  }
  EXPECT_EQ(validation_union.size(), 103u);
}

TEST(KFoldTest, StratifiedFoldsBalanceClasses) {
  const Dataset d = LabeledData(1000, 0.2, 7);
  auto folds = KFoldSplit(d, 5, 7);
  ASSERT_TRUE(folds.ok());
  for (const Fold& fold : *folds) {
    double pos = 0;
    for (size_t i : fold.validation) pos += d.label(i);
    EXPECT_NEAR(pos / static_cast<double>(fold.validation.size()), 0.2,
                0.05);
  }
}

TEST(KFoldTest, RejectsBadParameters) {
  const Dataset d = LabeledData(10, 0.5, 8);
  EXPECT_FALSE(KFoldSplit(d, 1, 1).ok());
  EXPECT_FALSE(KFoldSplit(d, 11, 1).ok());
}

TEST(CrossValidateTest, SeparableDataScoresHigh) {
  const Dataset d = LabeledData(400, 0.5, 9);
  ForestParams params;
  params.num_trees = 15;
  auto score = CrossValidateForest(d, params, 4, 9);
  ASSERT_TRUE(score.ok());
  // Two unit-variance Gaussians 2 sigma apart: Bayes ~0.84.
  EXPECT_GT(*score, 0.75);
  EXPECT_LE(*score, 1.0);
}

TEST(GridSearchTest, PicksBestCellAndReportsAll) {
  const Dataset d = LabeledData(300, 0.5, 10);
  std::vector<ForestParams> grid;
  ForestParams strong;
  strong.num_trees = 25;
  strong.max_depth = 8;
  ForestParams weak;
  weak.num_trees = 1;
  weak.max_depth = 0;  // majority class only
  grid.push_back(weak);
  grid.push_back(strong);
  auto result = GridSearchForest(d, grid, 3, 10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->all_scores.size(), 2u);
  EXPECT_EQ(result->best_params.num_trees, 25);
  EXPECT_GE(result->best_score, result->all_scores[0].second);
}

TEST(GridSearchTest, RejectsEmptyGrid) {
  const Dataset d = LabeledData(50, 0.5, 11);
  EXPECT_FALSE(GridSearchForest(d, {}, 3, 1).ok());
}

TEST(CrossValidateTest, ScoreIdenticalAcrossThreadCounts) {
  const Dataset d = LabeledData(300, 0.5, 12);
  ForestParams params;
  params.num_trees = 10;
  auto sequential = CrossValidateForest(d, params, 4, 12, /*num_threads=*/1);
  auto pooled = CrossValidateForest(d, params, 4, 12, /*num_threads=*/4);
  ASSERT_TRUE(sequential.ok() && pooled.ok());
  EXPECT_DOUBLE_EQ(*sequential, *pooled);
}

TEST(GridSearchTest, BitIdenticalAcrossThreadCounts) {
  const Dataset d = LabeledData(250, 0.5, 13);
  std::vector<ForestParams> grid;
  for (int depth : {2, 6, 10}) {
    ForestParams p;
    p.num_trees = 8;
    p.max_depth = depth;
    grid.push_back(p);
  }
  auto sequential = GridSearchForest(d, grid, 3, 13, /*num_threads=*/1);
  auto pooled = GridSearchForest(d, grid, 3, 13, /*num_threads=*/4);
  ASSERT_TRUE(sequential.ok() && pooled.ok());
  EXPECT_DOUBLE_EQ(sequential->best_score, pooled->best_score);
  EXPECT_EQ(sequential->best_params.ToString(),
            pooled->best_params.ToString());
  ASSERT_EQ(sequential->all_scores.size(), pooled->all_scores.size());
  for (size_t i = 0; i < sequential->all_scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(sequential->all_scores[i].second,
                     pooled->all_scores[i].second)
        << "cell " << i;
  }
}

TEST(GridSearchTest, PropagatesFoldErrorsFromPool) {
  const Dataset d = LabeledData(120, 0.5, 14);
  std::vector<ForestParams> grid;
  ForestParams good;
  good.num_trees = 5;
  ForestParams bad;
  bad.num_trees = 0;  // every fold Fit fails
  grid.push_back(good);
  grid.push_back(bad);
  auto sequential = GridSearchForest(d, grid, 3, 14, /*num_threads=*/1);
  auto pooled = GridSearchForest(d, grid, 3, 14, /*num_threads=*/4);
  EXPECT_FALSE(sequential.ok());
  EXPECT_FALSE(pooled.ok());
  // Deterministic error selection: the pool reports the same (first in
  // flattened order) failure the sequential path does.
  EXPECT_EQ(sequential.status().message(), pooled.status().message());
}

// Golden scores: every cell's mean fold accuracy, pinned exactly, so a
// change to fold training or to the validation decision rule shows.
TEST(GridSearchTest, ScoresMatchGoldenValues) {
  const Dataset d = TwoFeatureData(360, 21);
  for (int threads : {1, 3}) {
    auto result = GridSearchForest(d, GoldenGrid(), 4, 21, threads);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->all_scores.size(), 3u);
    EXPECT_EQ(result->all_scores[0].second, 0.73055555555555562);
    EXPECT_EQ(result->all_scores[1].second, 0.70555555555555549);
    EXPECT_EQ(result->all_scores[2].second, 0.69444444444444442);
    EXPECT_EQ(result->best_score, 0.73055555555555562);
    EXPECT_EQ(result->best_params.ToString(), GoldenGrid()[0].ToString());
    EXPECT_EQ(result->best_params.class_weights,
              GoldenGrid()[0].class_weights);
  }
}

TEST(CrossValidateTest, ClassWeightedScoreMatchesGoldenValue) {
  const Dataset d = TwoFeatureData(300, 22);
  auto score = CrossValidateForest(d, GoldenGrid()[2], 5, 22);
  ASSERT_TRUE(score.ok()) << score.status().ToString();
  EXPECT_EQ(*score, 0.69666666666666666);
}

TEST(CrossValidateTest, RejectsMultiClassData) {
  Rng rng(23);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 90; ++i) {
    const int label = i % 3;
    rows.push_back({rng.Normal(label, 1.0), rng.Normal(0.0, 1.0)});
    labels.push_back(label);
  }
  auto d = Dataset::Make({"a", "b"}, std::move(rows), std::move(labels));
  ASSERT_TRUE(d.ok());
  ForestParams params;
  params.num_trees = 4;
  for (int threads : {1, 3}) {
    auto score = CrossValidateForest(*d, params, 3, 23, threads);
    ASSERT_FALSE(score.ok());
    EXPECT_EQ(score.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(score.status().message().find("two-class"), std::string::npos)
        << score.status().ToString();
  }
}

TEST(GridSearchTest, DefaultGridIsNonTrivial) {
  const auto grid = DefaultForestGrid();
  EXPECT_GE(grid.size(), 4u);
  for (const auto& p : grid) {
    EXPECT_GT(p.num_trees, 0);
    EXPECT_GT(p.max_depth, 0);
  }
}

}  // namespace
}  // namespace cloudsurv::ml
