// Fixed-size log-linear histogram of call latencies. Callers record into
// their own instance, so recording takes no lock and no allocation, and
// the harness's memory does not grow with the number of calls (which
// would otherwise leak into rss_peak_mb). 64 linear sub-buckets per
// power of two bound the bucket width to 1/64 of its value; quantiles
// interpolate within the bucket by rank. (obs::LatencyHistogram's buckets
// are 1/8 wide and report midpoints: too coarse for a 20% bound.)
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace perfbench {

class LatencyHist {
 public:
  static constexpr int kSubBits = 6;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kOctaves = 36;  // values up to 2^42 ns clamp to the top
  static constexpr int kBuckets = kSub * (kOctaves + 1);

  void Record(uint64_t ns) {
    ++counts_[Index(ns)];
    ++total_;
  }

  void Merge(const LatencyHist& other) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  uint64_t Count() const { return total_; }

  // Value of the sample at rank ceil(q * n), interpolated within its bucket.
  double Quantile(double q) const {
    if (total_ == 0) return 0;
    double rank = q * static_cast<double>(total_);
    if (rank < 1) rank = 1;
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      uint64_t n = counts_[i];
      if (n == 0) continue;
      if (static_cast<double>(seen + n) >= rank) {
        double lo = static_cast<double>(Low(i));
        double width = static_cast<double>(Low(i + 1) - Low(i));
        double within = (rank - static_cast<double>(seen) - 0.5) /
                        static_cast<double>(n);
        return lo + width * (within < 0 ? 0 : within);
      }
      seen += n;
    }
    return static_cast<double>(Low(kBuckets - 1));
  }

 private:
  static int Index(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    int exp = 63 - std::countl_zero(v);
    int octave = exp - kSubBits + 1;
    if (octave > kOctaves) return kBuckets - 1;
    int sub = static_cast<int>((v >> (exp - kSubBits)) & (kSub - 1));
    return octave * kSub + sub;
  }

  static uint64_t Low(int idx) {
    if (idx < kSub) return static_cast<uint64_t>(idx);
    int octave = idx / kSub;
    int sub = idx % kSub;
    int exp = octave + kSubBits - 1;
    return (uint64_t{1} << exp) + (static_cast<uint64_t>(sub) << (exp - kSubBits));
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t total_ = 0;
};

}  // namespace perfbench
