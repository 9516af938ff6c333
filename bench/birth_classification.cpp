// Extension: classification at birth. The paper predicts at x = 2 days;
// a provisioning controller would love a signal at creation time (x = 0)
// — before any size/SLO telemetry exists — using only the creation
// timestamp, names, subscription type and subscription history. This
// bench trains a three-class forest (ephemeral / short-lived /
// long-lived, the section 3.3 taxonomy) at birth and reports the
// confusion structure, plus the binary task at x=0 for comparison with
// Figure 5's x=2 numbers.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/cohort.h"
#include "features/features.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"

using namespace cloudsurv;

int main() {
  bench::PrintHeader("Extension: lifespan classification at creation time");
  auto stores = bench::SimulateStudyRegions();
  const auto& store = stores[0];

  // Three-class cohort: every database with a known lifespan class.
  std::vector<telemetry::DatabaseId> ids;
  std::vector<int> labels;
  size_t unknown = 0;
  for (const auto& record : store.databases()) {
    const core::LifespanClass cls =
        core::ClassifyLifespan(record, store.window_end());
    if (cls == core::LifespanClass::kUnknown) {
      ++unknown;
      continue;
    }
    // Features are extracted one second after creation; skip the
    // handful of databases dropped within that same second.
    if (record.dropped_at.has_value() &&
        *record.dropped_at <= record.created_at + 1) {
      continue;
    }
    ids.push_back(record.id);
    labels.push_back(static_cast<int>(cls));
  }

  // Features visible one second after creation: calendar, names,
  // subscription type and history. (Size/SLO features evaluate to
  // zeros/creation values at x=0 and are omitted.)
  features::FeatureConfig feature_config;
  feature_config.observation_days = 1.0 / 86400.0;
  feature_config.include_size = false;
  feature_config.include_slo = false;

  auto dataset =
      features::BuildDataset(store, ids, labels, feature_config, 3);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("cohort: %zu databases (%zu unknown excluded), %zu "
              "birth-visible features\n",
              ids.size(), unknown, dataset->num_features());
  const auto counts = dataset->ClassCounts();
  std::printf("class mix: ephemeral=%zu short=%zu long=%zu\n\n", counts[0],
              counts[1], counts[2]);

  auto split = ml::TrainTestSplit(*dataset, 0.2, 11);
  auto train = dataset->Subset(split->train);
  auto test = dataset->Subset(split->test);
  ml::RandomForestClassifier forest;
  ml::ForestParams params;
  params.num_trees = 100;
  params.max_depth = 14;
  if (!forest.Fit(*train, params, 11).ok()) return 1;
  // Three classes: the most probable class of the reference PredictProba.
  std::vector<int> preds;
  preds.reserve(test->num_rows());
  for (size_t i = 0; i < test->num_rows(); ++i) {
    const std::vector<double> probs = forest.PredictProba(test->row(i));
    preds.push_back(static_cast<int>(
        std::max_element(probs.begin(), probs.end()) - probs.begin()));
  }

  auto confusion =
      ml::ComputeMulticlassConfusion(test->labels(), preds, 3);
  if (!confusion.ok()) return 1;
  std::printf("%s\n",
              ml::MulticlassConfusionToText(
                  *confusion, {"ephemeral", "short", "long"})
                  .c_str());
  std::printf("3-class accuracy at birth: %.3f (majority-class "
              "baseline: %.3f)\n\n",
              confusion->accuracy(),
              static_cast<double>(
                  *std::max_element(counts.begin(), counts.end())) /
                  static_cast<double>(ids.size()));
  for (int cls = 0; cls < 3; ++cls) {
    auto scores = ml::OneVsRestScores(*confusion, cls);
    if (!scores.ok()) continue;
    static const char* kNames[] = {"ephemeral", "short", "long"};
    std::printf("  %-9s one-vs-rest precision=%.2f recall=%.2f\n",
                kNames[cls], scores->precision, scores->recall);
  }

  // The binary x=0 vs x=2 comparison on the paper's task.
  std::printf("\nbinary long-vs-short task, x=0 vs x=2 (Basic "
              "subgroup):\n");
  for (double x : {1.0 / 86400.0, 2.0}) {
    core::ExperimentConfig config = bench::PaperExperimentConfig(false);
    config.observe_days = x;
    config.feature_config.include_size = x >= 1.0;
    config.feature_config.include_slo = x >= 1.0;
    config.num_repetitions = 2;
    auto result = core::RunPredictionExperiment(
        store, telemetry::Edition::kBasic, config);
    if (!result.ok()) continue;
    std::printf("  x=%-4s accuracy=%.3f precision=%.3f recall=%.3f\n",
                x < 1.0 ? "0d" : "2d", result->forest_avg.accuracy,
                result->forest_avg.precision, result->forest_avg.recall);
  }
  std::printf("\n(the 2-day telemetry window buys a few accuracy points "
              "and — more importantly — removes the ephemeral class from "
              "the task entirely, which is why the paper predicts at "
              "x=2.)\n");
  return 0;
}
