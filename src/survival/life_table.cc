#include "survival/life_table.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace cloudsurv::survival {

Result<LifeTable> LifeTable::Build(const SurvivalData& data,
                                   double interval_width, double horizon) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot build life table on empty data");
  }
  if (interval_width <= 0.0 || horizon <= 0.0) {
    return Status::InvalidArgument(
        "life table needs positive interval width and horizon");
  }
  const size_t num_intervals =
      static_cast<size_t>(std::ceil(horizon / interval_width));

  std::vector<size_t> events(num_intervals, 0);
  std::vector<size_t> censored(num_intervals, 0);
  size_t beyond = 0;  // subjects observed past the horizon
  for (const Observation& o : data.observations()) {
    size_t idx = static_cast<size_t>(o.duration / interval_width);
    if (o.duration >= horizon || idx >= num_intervals) {
      ++beyond;
      continue;
    }
    if (o.observed) {
      ++events[idx];
    } else {
      ++censored[idx];
    }
  }
  // Subjects alive past the horizon are censored in the final interval.
  if (num_intervals > 0) censored[num_intervals - 1] += beyond;

  LifeTable table;
  size_t entering = data.size();
  double cumulative = 1.0;
  for (size_t i = 0; i < num_intervals; ++i) {
    LifeTableRow row;
    row.interval_start = interval_width * static_cast<double>(i);
    row.interval_end = interval_width * static_cast<double>(i + 1);
    row.entering = entering;
    row.events = events[i];
    row.censored = censored[i];
    row.effective_at_risk =
        static_cast<double>(entering) - static_cast<double>(censored[i]) / 2.0;
    if (row.effective_at_risk > 0.0) {
      row.conditional_survival =
          1.0 - static_cast<double>(events[i]) / row.effective_at_risk;
      row.hazard_rate = static_cast<double>(events[i]) /
                        (row.effective_at_risk * interval_width);
    } else {
      row.conditional_survival = 1.0;
      row.hazard_rate = 0.0;
    }
    cumulative *= row.conditional_survival;
    cumulative = std::clamp(cumulative, 0.0, 1.0);
    row.cumulative_survival = cumulative;
    table.rows_.push_back(row);
    entering -= events[i] + censored[i];
  }
  return table;
}

double LifeTable::SurvivalAt(double time) const {
  double s = 1.0;
  for (const LifeTableRow& row : rows_) {
    if (row.interval_end > time) break;
    s = row.cumulative_survival;
  }
  return s;
}

std::string LifeTable::ToText() const {
  std::string out =
      "interval\tentering\tevents\tcensored\tcond_S\tcum_S\thazard\n";
  for (const LifeTableRow& r : rows_) {
    out.append("[").append(FormatDouble(r.interval_start, 1)).append(", ");
    out.append(FormatDouble(r.interval_end, 1)).append(")\t");
    out.append(std::to_string(r.entering)).append("\t");
    out.append(std::to_string(r.events)).append("\t");
    out.append(std::to_string(r.censored)).append("\t");
    out.append(FormatDouble(r.conditional_survival, 4)).append("\t");
    out.append(FormatDouble(r.cumulative_survival, 4)).append("\t");
    out.append(FormatDouble(r.hazard_rate, 5)).append("\n");
  }
  return out;
}

}  // namespace cloudsurv::survival
