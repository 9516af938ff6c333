// Ablation: forest capacity. Sweeps the number of trees and the
// per-node feature-subsampling rule and reports test accuracy and OOB
// accuracy on Region-1 / Basic — the design choices behind the paper's
// model pick (random forests: accurate, fast, robust to feature count).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/cohort.h"
#include "features/features.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"

using namespace cloudsurv;

int main() {
  bench::PrintHeader("Ablation: forest size and feature subsampling");
  auto stores = bench::SimulateStudyRegions();
  const auto& store = stores[0];

  auto cohort = core::BuildPredictionCohort(store, 2.0, 30.0,
                                            telemetry::Edition::kBasic);
  if (!cohort.ok()) return 1;
  features::FeatureConfig feature_config;
  auto dataset = features::BuildDataset(store, cohort->ids, cohort->labels,
                                        feature_config);
  if (!dataset.ok()) return 1;
  auto split = ml::TrainTestSplit(*dataset, 0.2, 7);
  if (!split.ok()) return 1;
  auto train = dataset->Subset(split->train);
  auto test = dataset->Subset(split->test);
  if (!train.ok() || !test.ok()) return 1;
  std::printf("Region-1 / Basic: %zu train rows, %zu test rows, %zu "
              "features\n\n",
              train->num_rows(), test->num_rows(),
              dataset->num_features());

  std::printf("tree-count sweep (depth 14, sqrt features):\n");
  std::printf("  %6s %10s %10s\n", "trees", "test-acc", "oob-acc");
  for (int trees : {1, 5, 20, 60, 150, 300}) {
    ml::ForestParams params;
    params.num_trees = trees;
    params.max_depth = 14;
    ml::RandomForestClassifier forest;
    if (!forest.Fit(*train, params, 7).ok()) continue;
    auto probs = bench::ForestScores(forest, *dataset, split->test);
    if (!probs.ok()) continue;
    auto scores =
        ml::ComputeScores(test->labels(), bench::LabelsOf(*probs));
    if (!scores.ok()) continue;
    std::printf("  %6d %10.3f %10.3f\n", trees, scores->accuracy,
                forest.oob_accuracy());
  }

  std::printf("\nfeature-subsampling sweep (80 trees, depth 14):\n");
  std::printf("  %6s %10s %10s\n", "rule", "test-acc", "oob-acc");
  const std::pair<const char*, ml::MaxFeaturesRule> kRules[] = {
      {"sqrt", ml::MaxFeaturesRule::kSqrt},
      {"log2", ml::MaxFeaturesRule::kLog2},
      {"all", ml::MaxFeaturesRule::kAll},
  };
  for (const auto& [name, rule] : kRules) {
    ml::ForestParams params;
    params.num_trees = 80;
    params.max_depth = 14;
    params.max_features = rule;
    ml::RandomForestClassifier forest;
    if (!forest.Fit(*train, params, 7).ok()) continue;
    auto probs = bench::ForestScores(forest, *dataset, split->test);
    if (!probs.ok()) continue;
    auto scores =
        ml::ComputeScores(test->labels(), bench::LabelsOf(*probs));
    if (!scores.ok()) continue;
    std::printf("  %6s %10.3f %10.3f\n", name, scores->accuracy,
                forest.oob_accuracy());
  }

  // Class-weight ablation on the imbalanced Premium subgroup: the
  // paper attributes Premium's low recall to class imbalance
  // (section 5.2); balanced weights are the standard remedy.
  {
    auto premium = core::BuildPredictionCohort(store, 2.0, 30.0,
                                               telemetry::Edition::kPremium);
    if (premium.ok()) {
      auto pd = features::BuildDataset(store, premium->ids,
                                       premium->labels, feature_config);
      auto psplit = pd.ok() ? ml::TrainTestSplit(*pd, 0.2, 7)
                            : Result<ml::TrainTestIndices>(pd.status());
      if (pd.ok() && psplit.ok()) {
        auto ptrain = pd->Subset(psplit->train);
        auto ptest = pd->Subset(psplit->test);
        const double q = ptrain->ClassFraction(1);
        std::printf("\nclass-weight ablation (Premium, q=%.2f):\n", q);
        std::printf("  %-10s %10s %10s %10s\n", "weights", "acc", "prec",
                    "recall");
        for (bool balanced : {false, true}) {
          ml::ForestParams params;
          params.num_trees = 80;
          params.max_depth = 14;
          if (balanced) {
            params.class_weights = {1.0 / (1.0 - q), 1.0 / q};
          }
          ml::RandomForestClassifier forest;
          if (!forest.Fit(*ptrain, params, 7).ok()) continue;
          auto probs = bench::ForestScores(forest, *pd, psplit->test);
          if (!probs.ok()) continue;
          auto scores =
              ml::ComputeScores(ptest->labels(), bench::LabelsOf(*probs));
          if (!scores.ok()) continue;
          std::printf("  %-10s %10.3f %10.3f %10.3f\n",
                      balanced ? "balanced" : "uniform", scores->accuracy,
                      scores->precision, scores->recall);
        }
      }
    }
  }

  std::printf("\ndepth sweep (80 trees, sqrt features):\n");
  std::printf("  %6s %10s %10s\n", "depth", "test-acc", "oob-acc");
  for (int depth : {2, 4, 8, 14, 20}) {
    ml::ForestParams params;
    params.num_trees = 80;
    params.max_depth = depth;
    ml::RandomForestClassifier forest;
    if (!forest.Fit(*train, params, 7).ok()) continue;
    auto probs = bench::ForestScores(forest, *dataset, split->test);
    if (!probs.ok()) continue;
    auto scores =
        ml::ComputeScores(test->labels(), bench::LabelsOf(*probs));
    if (!scores.ok()) continue;
    std::printf("  %6d %10.3f %10.3f\n", depth, scores->accuracy,
                forest.oob_accuracy());
  }
  return 0;
}
