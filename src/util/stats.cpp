#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/contracts.h"
#include "util/error.h"
#include "util/strings.h"

namespace sldm {

double quantile_sorted(const std::vector<double>& xs, double q) {
  SLDM_EXPECTS(!xs.empty());
  SLDM_EXPECTS(q >= 0.0 && q <= 1.0);
  SLDM_EXPECTS(std::is_sorted(xs.begin(), xs.end()));
  if (xs.size() == 1) return xs.front();
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

Summary summarize(std::vector<double> xs) {
  SLDM_EXPECTS(!xs.empty());
  Summary s;
  s.count = xs.size();
  double sum = 0.0;
  for (double x : xs) sum += x;
  s.mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - s.mean) * (x - s.mean);
  s.stddev = xs.size() > 1
                 ? std::sqrt(ss / static_cast<double>(xs.size() - 1))
                 : 0.0;
  std::sort(xs.begin(), xs.end());
  s.min = xs.front();
  s.max = xs.back();
  s.median = quantile_sorted(xs, 0.5);
  s.p90 = quantile_sorted(xs, 0.9);
  return s;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  SLDM_EXPECTS(bins >= 1);
  SLDM_EXPECTS(hi > lo);
}

void Histogram::add(double x) {
  const double t = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<long>(t * static_cast<double>(counts_.size()));
  bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
  sum_ += x;
}

void Histogram::add(double x, std::size_t times) {
  if (times == 0) return;
  const double t = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<long>(t * static_cast<double>(counts_.size()));
  bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(bin)] += times;
  total_ += times;
  sum_ += x * static_cast<double>(times);
}

double Histogram::mean() const {
  return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), std::size_t{0});
  total_ = 0;
  sum_ = 0.0;
}

void Histogram::merge(const Histogram& other) {
  if (!same_layout(other)) {
    throw Error(format(
        "histogram merge: mismatched bucket layout "
        "([%g, %g] x %zu vs [%g, %g] x %zu)",
        lo_, hi_, counts_.size(), other.lo_, other.hi_,
        other.counts_.size()));
  }
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  total_ += other.total_;
  sum_ += other.sum_;
}

std::size_t Histogram::count(std::size_t bin) const {
  SLDM_EXPECTS(bin < counts_.size());
  return counts_[bin];
}

double Histogram::bin_lo(std::size_t bin) const {
  SLDM_EXPECTS(bin < counts_.size());
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t bin) const {
  SLDM_EXPECTS(bin < counts_.size());
  return lo_ + (hi_ - lo_) * static_cast<double>(bin + 1) /
                   static_cast<double>(counts_.size());
}

std::string Histogram::to_ascii(std::size_t max_width) const {
  std::size_t peak = 1;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    os.setf(std::ios::fixed);
    os.precision(1);
    os.width(8);
    os << bin_lo(b) << " .. ";
    os.width(8);
    os << bin_hi(b) << " | ";
    const std::size_t w = counts_[b] * max_width / peak;
    for (std::size_t i = 0; i < w; ++i) os << '#';
    os << ' ' << counts_[b] << '\n';
  }
  return os.str();
}

}  // namespace sldm
