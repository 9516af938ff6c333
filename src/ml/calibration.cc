#include "ml/calibration.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace cloudsurv::ml {

Result<CalibrationReport> ComputeCalibration(
    const std::vector<int>& y_true,
    const std::vector<double>& positive_probability, int num_bins) {
  if (y_true.size() != positive_probability.size() || y_true.empty()) {
    return Status::InvalidArgument("calibration: invalid input sizes");
  }
  if (num_bins < 1) {
    return Status::InvalidArgument("calibration: num_bins must be >= 1");
  }
  for (size_t i = 0; i < y_true.size(); ++i) {
    if (y_true[i] != 0 && y_true[i] != 1) {
      return Status::InvalidArgument("calibration requires 0/1 labels");
    }
    if (!(positive_probability[i] >= 0.0 && positive_probability[i] <= 1.0)) {
      return Status::InvalidArgument(
          "calibration requires probabilities in [0, 1]");
    }
  }

  CalibrationReport report;
  report.bins.resize(static_cast<size_t>(num_bins));
  std::vector<double> sum_pred(static_cast<size_t>(num_bins), 0.0);
  std::vector<double> sum_pos(static_cast<size_t>(num_bins), 0.0);
  const double width = 1.0 / static_cast<double>(num_bins);
  for (int b = 0; b < num_bins; ++b) {
    report.bins[static_cast<size_t>(b)].lower = width * b;
    report.bins[static_cast<size_t>(b)].upper = width * (b + 1);
  }

  double brier = 0.0;
  for (size_t i = 0; i < y_true.size(); ++i) {
    const double p = positive_probability[i];
    const double err = p - static_cast<double>(y_true[i]);
    brier += err * err;
    size_t b = static_cast<size_t>(p / width);
    b = std::min(b, static_cast<size_t>(num_bins) - 1);
    ++report.bins[b].count;
    sum_pred[b] += p;
    sum_pos[b] += static_cast<double>(y_true[i]);
  }
  report.brier_score = brier / static_cast<double>(y_true.size());

  double ece = 0.0;
  for (size_t b = 0; b < report.bins.size(); ++b) {
    ReliabilityBin& bin = report.bins[b];
    if (bin.count == 0) continue;
    bin.mean_predicted = sum_pred[b] / static_cast<double>(bin.count);
    bin.observed_rate = sum_pos[b] / static_cast<double>(bin.count);
    const double gap = std::fabs(bin.mean_predicted - bin.observed_rate);
    ece += gap * static_cast<double>(bin.count) /
           static_cast<double>(y_true.size());
    report.max_calibration_error =
        std::max(report.max_calibration_error, gap);
  }
  report.expected_calibration_error = ece;
  return report;
}

std::string CalibrationReport::ToText() const {
  std::string out = "bin\tcount\tmean_pred\tobserved\n";
  for (const ReliabilityBin& bin : bins) {
    out.append("[").append(FormatDouble(bin.lower, 1)).append(", ");
    out.append(FormatDouble(bin.upper, 1)).append(")\t");
    out.append(std::to_string(bin.count)).append("\t");
    out.append(FormatDouble(bin.mean_predicted, 3)).append("\t");
    out.append(FormatDouble(bin.observed_rate, 3)).append("\n");
  }
  out += "brier=" + FormatDouble(brier_score, 4) +
         " ece=" + FormatDouble(expected_calibration_error, 4) +
         " max_ce=" + FormatDouble(max_calibration_error, 4) + "\n";
  return out;
}

}  // namespace cloudsurv::ml
