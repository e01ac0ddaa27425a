// Order statistics for the benchmark's timings.
//
// Percentiles are nearest-rank: the p-th percentile of n ascending
// samples is the sample at rank ceil(p·n/100). A tail percentile is
// reported only when at least kMinBeyond samples lie beyond its rank,
// so a p99 needs 1000 samples and a p90 needs 100.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

/// Samples a reported tail percentile must leave above its rank.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of the `pct`-th percentile (pct in [1, 100]) of
/// `n` samples: ceil(pct·n/100).
std::size_t percentile_rank(std::size_t n, int pct);

/// Samples strictly above the nearest rank of the `pct`-th percentile.
std::size_t samples_beyond(std::size_t n, int pct);

/// Whether `n` samples leave at least kMinBeyond beyond percentile `pct`.
bool supports(std::size_t n, int pct);

/// The highest percentile of {99, 90, 50} that is at most `cap` and that
/// `n` samples support; 0 when none is supported.
int tail_percentile(std::size_t n, int cap);

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
double percentile_sorted(std::span<const double> sorted, int pct);

/// Nearest-rank percentile of an unsorted sample (copied and sorted);
/// 0 for an empty sample.
double percentile(std::vector<double> samples, int pct);

/// The time-averaged median of a sample in arrival order: the
/// nearest-rank median of each full block of `block` consecutive samples,
/// averaged over the blocks (the plain median when no block is full).
/// On a host whose speed switches between states for seconds at a time,
/// a plain median jumps to whichever state held more than half of the
/// run; the average over blocks moves in proportion instead.
double blocked_median(const std::vector<double>& samples, std::size_t block);


}  // namespace perfbench
