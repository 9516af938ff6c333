#include "stats/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace cloudsurv::stats {

Result<Histogram> Histogram::Make(double lo, double hi, size_t num_bins) {
  if (!(lo < hi)) {
    return Status::InvalidArgument("histogram requires lo < hi");
  }
  if (num_bins == 0) {
    return Status::InvalidArgument("histogram requires num_bins >= 1");
  }
  return Histogram(lo, hi, num_bins);
}

Histogram::Histogram(double lo, double hi, size_t num_bins)
    : lo_(lo),
      hi_(hi),
      width_((hi - lo) / static_cast<double>(num_bins)),
      counts_(num_bins, 0) {}

void Histogram::Add(double value) {
  ++total_;
  if (value < lo_) {
    ++underflow_;
    return;
  }
  if (value >= hi_) {
    ++overflow_;
    return;
  }
  size_t idx = static_cast<size_t>((value - lo_) / width_);
  idx = std::min(idx, counts_.size() - 1);  // FP edge guard
  ++counts_[idx];
}

void Histogram::AddAll(const std::vector<double>& values) {
  for (double v : values) Add(v);
}

double Histogram::bin_lower(size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bin_upper(size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

double Histogram::bin_fraction(size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[i]) / static_cast<double>(total_);
}

std::string Histogram::ToAsciiArt(size_t max_width) const {
  uint64_t peak = 0;
  for (uint64_t c : counts_) peak = std::max(peak, c);
  std::string out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const size_t bar =
        peak == 0 ? 0
                  : static_cast<size_t>(std::llround(
                        static_cast<double>(counts_[i]) * max_width / peak));
    out.append("[").append(FormatDouble(bin_lower(i), 1)).append(", ");
    out.append(FormatDouble(bin_upper(i), 1)).append(") ");
    out.append(bar, '#');
    out.append(" ").append(std::to_string(counts_[i])).append("\n");
  }
  return out;
}

}  // namespace cloudsurv::stats
