#include "core/report.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace cloudsurv::core {

std::string KmCurveSeries(const survival::KaplanMeierCurve& curve,
                          int max_day, int stride) {
  std::string out = "day\tS(t)\n";
  for (int day = 0; day <= max_day; day += std::max(1, stride)) {
    out += std::to_string(day) + "\t" +
           FormatDouble(curve.SurvivalAt(static_cast<double>(day)), 4) + "\n";
  }
  return out;
}

std::string KmCurveSeriesMulti(
    const std::vector<std::pair<std::string, survival::KaplanMeierCurve>>&
        curves,
    int max_day, int stride) {
  std::string out = "day";
  for (const auto& [label, curve] : curves) out += "\t" + label;
  out += "\n";
  for (int day = 0; day <= max_day; day += std::max(1, stride)) {
    out += std::to_string(day);
    for (const auto& [label, curve] : curves) {
      out.append("\t").append(
          FormatDouble(curve.SurvivalAt(static_cast<double>(day)), 4));
    }
    out += "\n";
  }
  return out;
}

std::string KmCurveAsciiPlot(const survival::KaplanMeierCurve& curve,
                             int max_day, int height, int width) {
  height = std::max(4, height);
  width = std::max(10, width);
  std::vector<std::string> rows(static_cast<size_t>(height),
                                std::string(static_cast<size_t>(width), ' '));
  for (int x = 0; x < width; ++x) {
    const double day = static_cast<double>(max_day) * x / (width - 1);
    const double s = curve.SurvivalAt(day);
    int y = static_cast<int>(std::round((1.0 - s) * (height - 1)));
    y = std::clamp(y, 0, height - 1);
    rows[static_cast<size_t>(y)][static_cast<size_t>(x)] = '*';
  }
  std::string out;
  for (int y = 0; y < height; ++y) {
    const double level =
        1.0 - static_cast<double>(y) / static_cast<double>(height - 1);
    out += FormatDouble(level, 2) + " |" + rows[static_cast<size_t>(y)] +
           "\n";
  }
  out += "     +" + std::string(static_cast<size_t>(width), '-') + "\n";
  out += "      0 .. " + std::to_string(max_day) + " days\n";
  return out;
}

std::string ScoreComparisonRow(const std::string& label,
                               const ml::ClassificationScores& forest,
                               const ml::ClassificationScores& baseline) {
  return label + "\tforest: acc=" + FormatDouble(forest.accuracy, 2) +
         " prec=" + FormatDouble(forest.precision, 2) +
         " rec=" + FormatDouble(forest.recall, 2) +
         "\tbaseline: acc=" + FormatDouble(baseline.accuracy, 2) +
         " prec=" + FormatDouble(baseline.precision, 2) +
         " rec=" + FormatDouble(baseline.recall, 2);
}

std::string ConfidenceComparisonRow(const SubgroupExperimentResult& result) {
  auto fmt = [](const ml::ClassificationScores& s) {
    return "acc=" + FormatDouble(s.accuracy, 2) +
           " prec=" + FormatDouble(s.precision, 2) +
           " rec=" + FormatDouble(s.recall, 2);
  };
  return result.region_name + "/" + result.subgroup_name +
         "\tall: " + fmt(result.forest_avg) +
         "\tconfident: " + fmt(result.confident_avg) +
         "\tuncertain: " + fmt(result.uncertain_avg) +
         "\tbaseline: " + fmt(result.baseline_avg) + "\tconfident_share=" +
         FormatDouble(result.confident_fraction_avg * 100.0, 0) + "%";
}

std::string FormatPValue(double p) {
  if (p < 0.0000001) return "< 0.0000001";
  return FormatDouble(p, 6);
}

}  // namespace cloudsurv::core
