#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) {
    return upper;
  }
  const double lower = *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2;
}

std::optional<Tail> tail_percentile(std::vector<double> samples, double wanted) {
  const std::size_t n = samples.size();
  if (n < kTailBeyond + 1) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest 1-based rank r with r >= wanted/100 · n.
  const double exact = wanted / 100.0 * static_cast<double>(n);
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n - kTailBeyond);
  Tail t;
  t.value = samples[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  t.samples = n;
  t.beyond = n - rank;
  return t;
}

std::optional<Tail> chunked_tail(const std::vector<double>& samples, double wanted,
                                 std::size_t min_chunk, std::size_t max_chunks) {
  const std::size_t n = samples.size();
  const std::size_t chunks =
      std::clamp<std::size_t>(min_chunk == 0 ? 1 : n / min_chunk, 1, std::max<std::size_t>(max_chunks, 1));
  std::vector<double> tails;
  std::optional<Tail> first;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(n * c / chunks);
    const auto end = samples.begin() + static_cast<std::ptrdiff_t>(n * (c + 1) / chunks);
    const auto t = tail_percentile(std::vector<double>(begin, end), wanted);
    if (!t) {
      return std::nullopt;
    }
    if (!first) {
      first = t;
    }
    tails.push_back(t->value);
  }
  Tail out = *first;
  out.value = median(tails);
  out.samples = n;
  return out;
}

std::vector<std::size_t> calm(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&steal](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  std::size_t keep = 0;
  while (keep < order.size() &&
         (keep < kMinCalm || steal[order[keep]] <= steal[order[0]] + kStealSlack)) {
    ++keep;
  }
  order.resize(keep);
  std::sort(order.begin(), order.end());
  return order;
}

double calm_median(const std::vector<double>& values, const std::vector<double>& steal) {
  std::vector<double> picked;
  for (const std::size_t i : calm(steal)) {
    picked.push_back(values[i]);
  }
  return median(picked);
}

}  // namespace perfbench
