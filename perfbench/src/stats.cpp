#include "stats.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

std::size_t percentile_rank(std::size_t n, int pct) {
  if (pct < 1 || pct > 100) {
    throw std::invalid_argument("percentile: pct must be in [1, 100]");
  }
  const auto p = static_cast<std::size_t>(pct);
  return std::max<std::size_t>(1, (p * n + 99) / 100);
}

std::size_t samples_beyond(std::size_t n, int pct) {
  return n == 0 ? 0 : n - percentile_rank(n, pct);
}

bool supports(std::size_t n, int pct) {
  return samples_beyond(n, pct) >= kMinBeyond;
}

int tail_percentile(std::size_t n, int cap) {
  for (const int pct : {99, 90, 50}) {
    if (pct <= cap && supports(n, pct)) return pct;
  }
  return 0;
}

double percentile_sorted(std::span<const double> sorted, int pct) {
  if (sorted.empty()) {
    throw std::invalid_argument("percentile: empty sample");
  }
  return sorted[percentile_rank(sorted.size(), pct) - 1];
}

double percentile(std::vector<double> samples, int pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, pct);
}

double blocked_median(const std::vector<double>& samples,
                      std::size_t block) {
  const std::size_t blocks = block == 0 ? 0 : samples.size() / block;
  if (blocks == 0) return percentile(samples, 50);
  double sum = 0.0;
  const auto width = static_cast<std::ptrdiff_t>(block);
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b) * width;
    sum += percentile(std::vector<double>(first, first + width), 50);
  }
  return sum / static_cast<double>(blocks);
}

}  // namespace perfbench
