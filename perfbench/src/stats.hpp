#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

/// \file stats.hpp
/// Summary statistics with the benchmark's reporting rule: a timing is a
/// median plus the highest percentile (up to the one asked for) that still
/// has at least ten samples beyond it, always with the sample count.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of \p samples (mean of the middle two for an even count);
/// 0 for an empty sample.
double median(std::vector<double> samples);

struct Tail {
  double value = 0;       ///< the sample at the chosen rank
  double percentile = 0;  ///< the percentile that rank is, 100·rank/n
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly after the chosen rank
};

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// Nearest-rank \p wanted percentile of \p samples, lowered until at least
/// kTailBeyond samples lie beyond it. nullopt when the sample is too small
/// for any rank to have that many beyond it (fewer than kTailBeyond + 1).
std::optional<Tail> tail_percentile(std::vector<double> samples, double wanted);

/// The tail of a long, time-ordered sample, robust to one bad stretch:
/// the sample is cut into consecutive chunks of at least \p min_chunk
/// samples (at most \p max_chunks of them) and the median of the chunks'
/// tail_percentile values is reported. A sample shorter than two chunks is
/// one chunk. The result's percentile and beyond are those of the first
/// chunk's tail; samples is the whole sample's size.
std::optional<Tail> chunked_tail(const std::vector<double>& samples, double wanted,
                                 std::size_t min_chunk, std::size_t max_chunks);

/// Steal shares (stolen / machine CPU time) within this much of the
/// least-stolen entry count as calm.
inline constexpr double kStealSlack = 0.03;
inline constexpr std::size_t kMinCalm = 3;

/// Indices, in order, of the entries whose steal is within kStealSlack of
/// the least-stolen entry, and at least kMinCalm of them (all when fewer):
/// the stretches of a run that the host disturbed least. On a quiet host,
/// every entry.
std::vector<std::size_t> calm(const std::vector<double>& steal);

/// The median of \p values over calm(\p steal).
double calm_median(const std::vector<double>& values, const std::vector<double>& steal);

}  // namespace perfbench

#endif
