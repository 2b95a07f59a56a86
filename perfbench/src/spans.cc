#include "spans.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

std::vector<Span> UnionOf(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  std::vector<Span> merged;
  for (const Span& s : spans) {
    if (s.length() == 0) continue;
    if (!merged.empty() && s.start_ns <= merged.back().end_ns) {
      merged.back().end_ns = std::max(merged.back().end_ns, s.end_ns);
    } else {
      merged.push_back(s);
    }
  }
  return merged;
}

uint64_t SelfTimeNs(const std::vector<Span>& parents,
                    const std::vector<Span>& children) {
  const std::vector<Span> cover = UnionOf(children);
  uint64_t self = 0;
  for (const Span& parent : parents) {
    uint64_t covered = 0;
    // First covering interval that ends after the parent starts.
    auto it = std::upper_bound(
        cover.begin(), cover.end(), parent.start_ns,
        [](uint64_t t, const Span& c) { return t < c.end_ns; });
    for (; it != cover.end() && it->start_ns < parent.end_ns; ++it) {
      const uint64_t lo = std::max(it->start_ns, parent.start_ns);
      const uint64_t hi = std::min(it->end_ns, parent.end_ns);
      if (hi > lo) covered += hi - lo;
    }
    self += parent.length() - std::min(covered, parent.length());
  }
  return self;
}

std::size_t SamplesBeyond(std::size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  const std::size_t r = static_cast<std::size_t>(std::max(rank, 1.0));
  return n > r ? n - r : 0;
}

double SupportedPercentile(std::size_t n, std::size_t min_beyond) {
  for (const double pct : kPercentileCandidates) {
    if (SamplesBeyond(n, pct) >= min_beyond) return pct;
  }
  return 0.0;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) throw std::invalid_argument("no samples");
  const std::size_t n = values.size();
  const std::size_t rank = n - SamplesBeyond(n, pct);  // 1-based
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double BlockPercentile(const std::vector<double>& values, double pct,
                       std::size_t block_size) {
  const std::size_t n = values.size();
  const std::size_t blocks = std::max<std::size_t>(1, n / block_size);
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    per_block.push_back(Percentile(
        std::vector<double>(values.begin() + b * n / blocks,
                            values.begin() + (b + 1) * n / blocks),
        pct));
  }
  return Median(per_block);
}

}  // namespace perfbench
