// Model-choice study backing Section 6's discussion: "There are many
// different statistical and machine learning techniques to perform the
// analysis... The goal of our work was not to compare different
// approaches." This bench does the comparison the paper skipped:
// random forest vs gradient-boosted trees vs the weighted-random
// baseline on the paper's task, plus permutation importance as a
// cross-check on the gini ranking of Section 5.4.

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench/bench_util.h"
#include "core/cohort.h"
#include "features/features.h"
#include "ml/cross_validation.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"
#include "ml/permutation_importance.h"
#include "ml/random_forest.h"

using namespace cloudsurv;

int main() {
  bench::PrintHeader("Model comparison: random forest vs GBDT vs baseline");
  auto stores = bench::SimulateStudyRegions();

  std::printf("%-10s %-9s | %-8s %-8s %-8s | %-8s %-8s\n", "region",
              "edition", "forest", "gbdt", "baseline", "f-auc", "g-auc");
  for (const auto& store : stores) {
    for (telemetry::Edition edition : bench::StudyEditions()) {
      auto cohort = core::BuildPredictionCohort(store, 2.0, 30.0, edition);
      if (!cohort.ok()) continue;
      features::FeatureConfig feature_config;
      auto dataset = features::BuildDataset(store, cohort->ids,
                                            cohort->labels, feature_config);
      if (!dataset.ok()) continue;
      auto split = ml::TrainTestSplit(*dataset, 0.2, 17);
      if (!split.ok()) continue;
      auto train = dataset->Subset(split->train);
      auto test = dataset->Subset(split->test);
      if (!train.ok() || !test.ok()) continue;

      ml::RandomForestClassifier forest;
      ml::ForestParams fp;
      fp.num_trees = 80;
      fp.max_depth = 14;
      if (!forest.Fit(*train, fp, 17).ok()) continue;

      ml::GradientBoostedTreesClassifier gbdt;
      ml::GbdtParams gp;
      gp.num_rounds = 150;
      gp.max_depth = 5;
      gp.subsample = 0.8;
      if (!gbdt.Fit(*train, gp, 17).ok()) continue;

      ml::WeightedRandomClassifier baseline;
      if (!baseline.Fit(*train).ok()) continue;

      auto f_prob = bench::ForestScores(forest, *dataset, split->test);
      auto g_pred = gbdt.PredictBatch(*test);
      auto b_pred = baseline.PredictBatch(*test, 17);
      auto g_prob = gbdt.PredictPositiveProba(*test);
      if (!f_prob.ok() || !g_pred.ok() || !b_pred.ok() || !g_prob.ok()) {
        continue;
      }
      const double f_acc =
          ml::ComputeScores(test->labels(), bench::LabelsOf(*f_prob))
              ->accuracy;
      const double g_acc =
          ml::ComputeScores(test->labels(), *g_pred)->accuracy;
      const double b_acc =
          ml::ComputeScores(test->labels(), *b_pred)->accuracy;
      const double f_auc = ml::RocAuc(test->labels(), *f_prob).value_or(0.5);
      const double g_auc = ml::RocAuc(test->labels(), *g_prob).value_or(0.5);
      std::printf("%-10s %-9s | %8.3f %8.3f %8.3f | %8.3f %8.3f\n",
                  store.region_name().c_str(),
                  telemetry::EditionToString(edition), f_acc, g_acc, b_acc,
                  f_auc, g_auc);
    }
  }

  // Permutation importance of the top gini features on Region-1/Basic:
  // does the ranking survive a necessity-based measure?
  std::printf("\npermutation importance (Region-1 / Basic, forest, "
              "3 shuffles, top gini features):\n");
  {
    const auto& store = stores[0];
    auto cohort = core::BuildPredictionCohort(store, 2.0, 30.0,
                                              telemetry::Edition::kBasic);
    features::FeatureConfig feature_config;
    auto dataset = features::BuildDataset(store, cohort->ids,
                                          cohort->labels, feature_config);
    auto split = ml::TrainTestSplit(*dataset, 0.25, 5);
    auto train = dataset->Subset(split->train);
    auto test = dataset->Subset(split->test);
    ml::RandomForestClassifier forest;
    ml::ForestParams fp;
    fp.num_trees = 60;
    fp.max_depth = 12;
    if (forest.Fit(*train, fp, 5).ok()) {
      std::vector<size_t> all_rows(test->num_rows());
      std::iota(all_rows.begin(), all_rows.end(), size_t{0});
      ml::ModelScorer scorer = [&](const ml::Dataset& d)
          -> Result<double> {
        CLOUDSURV_ASSIGN_OR_RETURN(
            std::vector<double> probs,
            bench::ForestScores(forest, d, all_rows));
        CLOUDSURV_ASSIGN_OR_RETURN(
            ml::ClassificationScores scores,
            ml::ComputeScores(d.labels(), bench::LabelsOf(probs)));
        return scores.accuracy;
      };
      auto perm = ml::ComputePermutationImportance(*test, scorer, 3, 5);
      if (perm.ok()) {
        // Rank by permutation drop; print top 10.
        std::vector<std::pair<double, std::string>> ranked;
        for (size_t f = 0; f < dataset->num_features(); ++f) {
          ranked.emplace_back(perm->importances[f],
                              dataset->feature_names()[f]);
        }
        std::sort(ranked.rbegin(), ranked.rend());
        std::printf("  baseline accuracy %.3f\n", perm->baseline_score);
        for (size_t i = 0; i < 10 && i < ranked.size(); ++i) {
          std::printf("  %2zu. %-28s drop=%.4f\n", i + 1,
                      ranked[i].second.c_str(), ranked[i].first);
        }
        std::printf("  (correlated features share gini credit but show "
                    "small permutation drops individually — the "
                    "redundancy noted in EXPERIMENTS.md.)\n");
      }
    }
  }
  return 0;
}
