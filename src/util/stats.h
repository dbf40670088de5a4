// Small descriptive-statistics helpers used by the experiment harness to
// summarize model-vs-simulator errors (Fig. 3 reconstruction).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sldm {

/// Summary statistics over a sample of doubles.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p90 = 0.0;  ///< 90th percentile (linear interpolation)
};

/// Computes summary statistics.  Precondition: !xs.empty().
Summary summarize(std::vector<double> xs);

/// Quantile with linear interpolation between order statistics.
/// Preconditions: xs non-empty and sorted ascending; 0 <= q <= 1.
double quantile_sorted(const std::vector<double>& xs, double q);

/// A fixed-width histogram over [lo, hi]; values outside are clamped into
/// the end bins so every sample is counted.
class Histogram {
 public:
  /// Precondition: bins >= 1, hi > lo.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  /// `times` samples of value `x` (exactly `times` calls of add(x) when
  /// x * times is exact, as for integer-valued samples).
  void add(double x, std::size_t times);

  /// Zeroes all counts and the sum; the bucket layout is kept.
  void reset();

  /// Adds `other`'s per-bucket counts, total, and sum into this
  /// histogram.  Throws Error unless both share the same [lo, hi] x
  /// bins layout -- summing buckets with different edges would silently
  /// misattribute samples.
  void merge(const Histogram& other);

  /// True iff `other` has the same [lo, hi] x bins layout.
  bool same_layout(const Histogram& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_ &&
           counts_.size() == other.counts_.size();
  }

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t bins() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const;
  std::size_t total() const { return total_; }
  /// Sum of all added values (unclamped), for mean reporting.
  double sum() const { return sum_; }
  /// sum() / total(); 0 when empty.
  double mean() const;
  /// Inclusive lower edge of `bin`.
  double bin_lo(std::size_t bin) const;
  /// Exclusive upper edge of `bin`.
  double bin_hi(std::size_t bin) const;

  /// Renders an ASCII bar chart, one line per bin.
  std::string to_ascii(std::size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  double sum_ = 0.0;
};

}  // namespace sldm
