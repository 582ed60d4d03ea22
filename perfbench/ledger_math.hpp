// The pipeline ledger's arithmetic, kept apart from the pipeline so that
// `ledger selftest` can check it on synthetic timelines:
//
//  * medians and interpolated quantiles, per-window medians across
//    repetitions for verdict latency,
//  * nearest-rank percentiles over weighted samples (verdict latency is
//    victim-weighted: every victim of a window waits for the call that
//    returned that window), with the count of samples ranked beyond the
//    selected one so a p99 can refuse too small a population,
//  * spans and their self time (span minus the union of its children),
//  * the real-time factor (wall seconds per second of traffic).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ledger {

/// The q-quantile of `v`, interpolating linearly between the order
/// statistics around rank q * (n - 1); 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// One latency sample standing for `weight` victims.
struct Weighted {
  double value{0.0};
  std::uint64_t weight{0};
};

struct Percentile {
  double value{0.0};
  /// Total weight (victims) the percentile was taken over.
  std::uint64_t samples{0};
  /// Weight ranked strictly after the selected sample.
  std::uint64_t beyond{0};
};

/// Nearest-rank percentile: the smallest value whose cumulative weight
/// reaches ceil(q * total). `beyond` = total - that rank, so a p99 over N
/// victims has N - ceil(0.99 N) samples past it (>= 10 needs N >= 1000).
inline Percentile weighted_percentile(std::vector<Weighted> xs, double q) {
  Percentile p;
  for (const Weighted& w : xs) p.samples += w.weight;
  if (p.samples == 0) return p;
  std::sort(xs.begin(), xs.end(), [](const Weighted& a, const Weighted& b) {
    return a.value < b.value;
  });
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(p.samples) - 1e-9));
  rank = std::clamp<std::uint64_t>(rank, 1, p.samples);
  std::uint64_t cum = 0;
  for (const Weighted& w : xs) {
    cum += w.weight;
    if (cum >= rank) {
      p.value = w.value;
      break;
    }
  }
  p.beyond = p.samples - rank;
  return p;
}

/// The call that returned one closed window in one repetition: its
/// duration and the victims the window held.
struct WindowCall {
  std::int64_t window{0};
  double ms{0.0};
  std::uint64_t victims{0};
};

/// Per-window medians over repetitions of the same input: every window's
/// call time is the median of its times across `reps` (a window missing
/// from some repetition takes the median of those it appears in), weighted
/// by its victims. Sorted by window index.
inline std::vector<Weighted> window_medians(
    const std::vector<std::vector<WindowCall>>& reps) {
  std::vector<std::pair<std::int64_t, std::pair<double, std::uint64_t>>> all;
  for (const auto& rep : reps)
    for (const WindowCall& c : rep)
      all.push_back({c.window, {c.ms, c.victims}});
  std::sort(all.begin(), all.end());
  std::vector<Weighted> out;
  for (std::size_t i = 0; i < all.size();) {
    std::size_t j = i;
    std::vector<double> ms;
    for (; j < all.size() && all[j].first == all[i].first; ++j)
      ms.push_back(all[j].second.first);
    out.push_back({median(std::move(ms)), all[i].second.second});
    i = j;
  }
  return out;
}

/// One timed call. `parent` indexes the enclosing span (-1 at the top),
/// `run` the repetition it belongs to, `window` the first closed window
/// index for poll/finish calls that returned one (-1 otherwise) and
/// `items` the victims such a call returned.
struct Span {
  std::string name;
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  int parent{-1};
  int run{0};
  std::int64_t window{-1};
  std::uint64_t items{0};

  std::int64_t duration() const { return end_ns - start_ns; }
};

/// Span duration minus the time covered by its direct children (clipped to
/// the span, overlapping children counted once).
inline std::int64_t self_time(const std::vector<Span>& spans, std::size_t i) {
  const Span& s = spans[i];
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& c : spans)
    if (c.parent == static_cast<int>(i))
      kids.emplace_back(std::max(c.start_ns, s.start_ns),
                        std::min(c.end_ns, s.end_ns));
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0, lo = 0, hi = 0;
  bool open = false;
  for (const auto& [a, b] : kids) {
    if (b <= a) continue;
    if (open && a <= hi) {
      hi = std::max(hi, b);
      continue;
    }
    if (open) covered += hi - lo;
    lo = a;
    hi = b;
    open = true;
  }
  if (open) covered += hi - lo;
  return s.duration() - covered;
}

/// Wall time per unit of traffic time; above 1 the pipeline falls behind.
inline double realtime_factor(std::int64_t wall_ns, std::int64_t traffic_ns) {
  return traffic_ns > 0
             ? static_cast<double>(wall_ns) / static_cast<double>(traffic_ns)
             : 0.0;
}

}  // namespace ledger
