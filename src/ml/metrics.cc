#include "ml/metrics.h"

#include <algorithm>
#include <numeric>

#include "common/string_util.h"

namespace cloudsurv::ml {

Result<ConfusionMatrix> ComputeConfusionMatrix(
    const std::vector<int>& y_true, const std::vector<int>& y_pred) {
  if (y_true.size() != y_pred.size()) {
    return Status::InvalidArgument("y_true and y_pred length mismatch");
  }
  if (y_true.empty()) {
    return Status::InvalidArgument("cannot score empty predictions");
  }
  ConfusionMatrix cm;
  for (size_t i = 0; i < y_true.size(); ++i) {
    if ((y_true[i] != 0 && y_true[i] != 1) ||
        (y_pred[i] != 0 && y_pred[i] != 1)) {
      return Status::InvalidArgument("binary metrics require 0/1 labels");
    }
    if (y_true[i] == 1 && y_pred[i] == 1) {
      ++cm.true_positive;
    } else if (y_true[i] == 0 && y_pred[i] == 1) {
      ++cm.false_positive;
    } else if (y_true[i] == 0 && y_pred[i] == 0) {
      ++cm.true_negative;
    } else {
      ++cm.false_negative;
    }
  }
  return cm;
}

ClassificationScores ScoresFromConfusion(const ConfusionMatrix& cm) {
  ClassificationScores s;
  s.support = cm.total();
  if (s.support == 0) return s;
  s.accuracy = static_cast<double>(cm.true_positive + cm.true_negative) /
               static_cast<double>(s.support);
  const size_t predicted_positive = cm.true_positive + cm.false_positive;
  s.precision = predicted_positive == 0
                    ? 0.0
                    : static_cast<double>(cm.true_positive) /
                          static_cast<double>(predicted_positive);
  const size_t actual_positive = cm.true_positive + cm.false_negative;
  s.recall = actual_positive == 0
                 ? 0.0
                 : static_cast<double>(cm.true_positive) /
                       static_cast<double>(actual_positive);
  s.f1 = (s.precision + s.recall) == 0.0
             ? 0.0
             : 2.0 * s.precision * s.recall / (s.precision + s.recall);
  return s;
}

Result<ClassificationScores> ComputeScores(const std::vector<int>& y_true,
                                           const std::vector<int>& y_pred) {
  CLOUDSURV_ASSIGN_OR_RETURN(ConfusionMatrix cm,
                             ComputeConfusionMatrix(y_true, y_pred));
  return ScoresFromConfusion(cm);
}

ClassificationScores AverageScores(
    const std::vector<ClassificationScores>& runs) {
  ClassificationScores avg;
  if (runs.empty()) return avg;
  for (const auto& s : runs) {
    avg.accuracy += s.accuracy;
    avg.precision += s.precision;
    avg.recall += s.recall;
    avg.f1 += s.f1;
    avg.support += s.support;
  }
  const double n = static_cast<double>(runs.size());
  avg.accuracy /= n;
  avg.precision /= n;
  avg.recall /= n;
  avg.f1 /= n;
  avg.support = static_cast<size_t>(
      static_cast<double>(avg.support) / n + 0.5);
  return avg;
}

Result<double> RocAuc(const std::vector<int>& y_true,
                      const std::vector<double>& positive_probability) {
  if (y_true.size() != positive_probability.size() || y_true.empty()) {
    return Status::InvalidArgument("RocAuc: invalid input sizes");
  }
  size_t num_pos = 0;
  for (int y : y_true) {
    if (y != 0 && y != 1) {
      return Status::InvalidArgument("RocAuc requires 0/1 labels");
    }
    num_pos += static_cast<size_t>(y);
  }
  const size_t num_neg = y_true.size() - num_pos;
  if (num_pos == 0 || num_neg == 0) {
    return Status::InvalidArgument("RocAuc needs both classes present");
  }
  // Midrank-based Mann-Whitney U.
  std::vector<size_t> order(y_true.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return positive_probability[a] < positive_probability[b];
  });
  std::vector<double> ranks(y_true.size());
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() &&
           positive_probability[order[j + 1]] ==
               positive_probability[order[i]]) {
      ++j;
    }
    const double midrank = (static_cast<double>(i) + static_cast<double>(j)) /
                               2.0 +
                           1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = midrank;
    i = j + 1;
  }
  double rank_sum_pos = 0.0;
  for (size_t k = 0; k < y_true.size(); ++k) {
    if (y_true[k] == 1) rank_sum_pos += ranks[k];
  }
  const double u = rank_sum_pos - static_cast<double>(num_pos) *
                                      (static_cast<double>(num_pos) + 1.0) /
                                      2.0;
  return u / (static_cast<double>(num_pos) * static_cast<double>(num_neg));
}

double MulticlassConfusion::accuracy() const {
  if (total == 0) return 0.0;
  size_t correct = 0;
  for (size_t c = 0; c < counts.size(); ++c) correct += counts[c][c];
  return static_cast<double>(correct) / static_cast<double>(total);
}

Result<MulticlassConfusion> ComputeMulticlassConfusion(
    const std::vector<int>& y_true, const std::vector<int>& y_pred,
    int num_classes) {
  if (y_true.size() != y_pred.size() || y_true.empty()) {
    return Status::InvalidArgument("confusion: invalid input sizes");
  }
  int max_label = -1;
  for (size_t i = 0; i < y_true.size(); ++i) {
    if (y_true[i] < 0 || y_pred[i] < 0) {
      return Status::InvalidArgument("labels must be non-negative");
    }
    max_label = std::max({max_label, y_true[i], y_pred[i]});
  }
  if (num_classes <= 0) {
    num_classes = max_label + 1;
  } else if (max_label >= num_classes) {
    return Status::InvalidArgument("label exceeds num_classes");
  }
  MulticlassConfusion confusion;
  confusion.counts.assign(static_cast<size_t>(num_classes),
                          std::vector<size_t>(
                              static_cast<size_t>(num_classes), 0));
  confusion.total = y_true.size();
  for (size_t i = 0; i < y_true.size(); ++i) {
    ++confusion.counts[static_cast<size_t>(y_true[i])]
                      [static_cast<size_t>(y_pred[i])];
  }
  return confusion;
}

Result<ClassificationScores> OneVsRestScores(
    const MulticlassConfusion& confusion, int cls) {
  if (cls < 0 || static_cast<size_t>(cls) >= confusion.num_classes()) {
    return Status::OutOfRange("class index out of range");
  }
  const size_t k = confusion.num_classes();
  const size_t c = static_cast<size_t>(cls);
  ConfusionMatrix cm;
  for (size_t t = 0; t < k; ++t) {
    for (size_t p = 0; p < k; ++p) {
      const size_t n = confusion.counts[t][p];
      if (t == c && p == c) {
        cm.true_positive += n;
      } else if (t == c) {
        cm.false_negative += n;
      } else if (p == c) {
        cm.false_positive += n;
      } else {
        cm.true_negative += n;
      }
    }
  }
  return ScoresFromConfusion(cm);
}

std::string MulticlassConfusionToText(
    const MulticlassConfusion& confusion,
    const std::vector<std::string>& class_names) {
  std::string out = "truth \\ pred";
  const size_t k = confusion.num_classes();
  for (size_t p = 0; p < k; ++p) {
    out += "\t" + (p < class_names.size() ? class_names[p]
                                           : std::to_string(p));
  }
  out += "\n";
  for (size_t t = 0; t < k; ++t) {
    out += (t < class_names.size() ? class_names[t] : std::to_string(t));
    for (size_t p = 0; p < k; ++p) {
      out.append("\t").append(std::to_string(confusion.counts[t][p]));
    }
    out += "\n";
  }
  return out;
}

std::string ScoresToString(const ClassificationScores& s) {
  return "accuracy=" + FormatDouble(s.accuracy, 3) +
         " precision=" + FormatDouble(s.precision, 3) +
         " recall=" + FormatDouble(s.recall, 3) +
         " f1=" + FormatDouble(s.f1, 3) +
         " n=" + std::to_string(s.support);
}

}  // namespace cloudsurv::ml
