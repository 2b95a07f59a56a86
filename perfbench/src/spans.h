// Span and sample arithmetic for the benchmark's ledger: self time of a
// span against its (possibly overlapping) children, and the percentile
// choice for latency samples.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// A half-open steady-clock interval [start_ns, end_ns).
struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t length() const { return end_ns > start_ns ? end_ns - start_ns : 0; }
};

// Sorts and merges spans into disjoint, ordered intervals (empty spans
// dropped). Overlapping or touching spans become one.
std::vector<Span> UnionOf(std::vector<Span> spans);

// Summed self time of `parents`: each parent's length minus the part of
// it covered by any child. Children are clipped to each parent, and
// children that overlap each other (a pipelined worker's ingest under the
// session thread's estimate) are counted once.
uint64_t SelfTimeNs(const std::vector<Span>& parents,
                    const std::vector<Span>& children);

// Candidate percentiles, highest first.
inline constexpr double kPercentileCandidates[] = {99.9, 99.0, 95.0, 90.0,
                                                   75.0, 50.0};

// Samples strictly above the nearest-rank `pct` percentile of `n`
// samples: n - ceil(pct / 100 * n).
std::size_t SamplesBeyond(std::size_t n, double pct);

// The highest candidate percentile with at least `min_beyond` samples
// beyond it; 0 when even the median lacks them.
double SupportedPercentile(std::size_t n, std::size_t min_beyond = 10);

// Nearest-rank percentile (pct in (0, 100]); `values` need not be sorted.
double Percentile(std::vector<double> values, double pct);

double Median(std::vector<double> values);

// Median over contiguous blocks of `values` (in arrival order) of each
// block's nearest-rank `pct` percentile. There are n / block_size blocks
// (at least one); the remainder is spread over them, so each holds at
// least `block_size` samples when n allows. A burst of interference from
// outside the program lands in one block and moves one block's
// percentile, not the median over blocks.
double BlockPercentile(const std::vector<double>& values, double pct,
                       std::size_t block_size);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
