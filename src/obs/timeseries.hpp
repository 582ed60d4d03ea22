// Metric time-series history: Registry snapshots sampled on a cadence into
// fixed-size per-metric ring buffers.
//
// The registry (metrics.hpp) answers "what is the value now"; operators
// diagnosing a live engine need "what was it over the last minute" —
// watermark lag creeping up, drop rates spiking during a storm, board
// evictions climbing. A Sampler thread snapshots a Registry every
// `sample_every` and appends one (wall timestamp, value) point per metric
// to a TimeSeriesStore ring: counters and gauges record their value,
// histograms their cumulative count. Memory is strictly bounded:
// capacity points per metric, oldest overwritten.
//
// The store also derives per-interval rates (the discrete derivative per
// second between consecutive retained samples) so counter series read as
// throughput without client-side math. Exposed over HTTP as
// /series?name=<metric>&last=<n> (http.hpp).
//
// Thread model: sample() is called by the sampler thread; last()/rate()/
// names() by the HTTP thread. One mutex guards the rings — samples are
// O(metrics), queries O(n), both far off any hot path. With
// MICROSCOPE_NO_METRICS snapshots are all-zero; sampling still works and
// the endpoints degrade to flat-zero series.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace microscope::obs {

/// One retained sample: wall-clock nanoseconds since the epoch + value.
struct SeriesPoint {
  std::int64_t unix_ns{0};
  double value{0.0};
};

struct TimeSeriesOptions {
  /// Ring capacity per metric (points). 512 points at a 1 s cadence is
  /// ~8.5 minutes of history; memory is capacity * metrics * 16 B.
  std::size_t capacity = 512;
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(TimeSeriesOptions opts = {});

  /// Append one point per metric in `snap` at wall time `unix_ns`
  /// (histograms contribute their cumulative count).
  void sample(const Snapshot& snap, std::int64_t unix_ns);

  /// The newest `n` points of `name`, oldest first. Empty when the metric
  /// has never been sampled.
  std::vector<SeriesPoint> last(std::string_view name, std::size_t n) const;

  /// Discrete derivative of `name` per wall-clock second: one point per
  /// consecutive retained pair, stamped at the newer sample's time. At
  /// most `n` points, oldest first. Gauges can go negative; counters
  /// read as event throughput.
  std::vector<SeriesPoint> rate(std::string_view name, std::size_t n) const;

  /// All sampled metric names, sorted.
  std::vector<std::string> names() const;

  std::uint64_t samples_taken() const {
    return samples_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return opts_.capacity; }

 private:
  struct Ring {
    std::vector<SeriesPoint> buf;  // capacity once first written
    std::size_t next{0};           // insert position
    std::size_t size{0};           // <= capacity
  };

  TimeSeriesOptions opts_;
  mutable std::mutex mu_;
  std::map<std::string, Ring, std::less<>> series_;
  std::atomic<std::uint64_t> samples_{0};
};

/// JSON body of /series: {"name": ..., "unit": ..., "points": [{"t": unix_ns,
/// "v": ...}, ...], "rate_per_s": [...]}. Points oldest first.
std::string series_to_json(std::string_view name,
                           const std::vector<SeriesPoint>& points,
                           const std::vector<SeriesPoint>& rates);

struct SamplerOptions {
  /// Snapshot cadence (CLI --sample-every).
  std::chrono::milliseconds every{1000};
};

/// Owns the sampling thread: every `every`, refreshes the runtime gauges,
/// snapshots `reg` into `store`, and invokes `on_sample` (the health
/// watchdog's evaluation hook) with the snapshot. start()/stop() are
/// idempotent; stop() joins. The first sample is taken immediately at
/// start() so short-lived runs still have history.
class Sampler {
 public:
  using SampleHook = std::function<void(const Snapshot&)>;

  Sampler(Registry& reg, TimeSeriesStore& store, SamplerOptions opts = {},
          SampleHook on_sample = {});
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

  /// One synchronous sampling tick on the calling thread (used by tests
  /// and by callers that want a final sample before rendering).
  void sample_now();

 private:
  void loop();

  Registry& reg_;
  TimeSeriesStore& store_;
  SamplerOptions opts_;
  SampleHook on_sample_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> ticks_{0};
};

}  // namespace microscope::obs
