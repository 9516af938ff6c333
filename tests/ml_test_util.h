#ifndef CLOUDSURV_TESTS_ML_TEST_UTIL_H_
#define CLOUDSURV_TESTS_ML_TEST_UTIL_H_

#include <algorithm>
#include <numeric>
#include <vector>

#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"

namespace cloudsurv::testing {

/// Every row index of `d`, in order: the whole dataset as a row view.
inline std::vector<size_t> AllRows(const ml::Dataset& d) {
  std::vector<size_t> rows(d.num_rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  return rows;
}

/// Index of the largest probability, the first one on a tie.
inline int Argmax(const std::vector<double>& probs) {
  return static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                          probs.begin());
}

/// Most probable class of every row of `d` under one tree.
inline std::vector<int> TreeLabels(const ml::DecisionTreeClassifier& tree,
                                   const ml::Dataset& d) {
  std::vector<int> out;
  out.reserve(d.num_rows());
  for (size_t i = 0; i < d.num_rows(); ++i) {
    out.push_back(Argmax(tree.LeafDistribution(d.row(i))));
  }
  return out;
}

/// Most probable class of every row of `d` under the forest's reference
/// PredictProba (any class count).
inline std::vector<int> ForestLabels(
    const ml::RandomForestClassifier& forest, const ml::Dataset& d) {
  std::vector<int> out;
  out.reserve(d.num_rows());
  for (size_t i = 0; i < d.num_rows(); ++i) {
    out.push_back(Argmax(forest.PredictProba(d.row(i))));
  }
  return out;
}

}  // namespace cloudsurv::testing

#endif  // CLOUDSURV_TESTS_ML_TEST_UTIL_H_
