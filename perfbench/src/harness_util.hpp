// Measurement plumbing shared by every workload of the fair-ordering
// benchmark: the run's one clock, sample sets with nearest-rank
// percentiles, in-memory spans, the sustained-rate search, RSS, the
// emitted-stream digest and the result record printed as JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/time.hpp"

namespace pb {

/// The run's single clock: steady_clock seconds since the benchmark
/// started. The arrival clock of every front-end, every pump call and the
/// generator's stamps all read it, so T_b, arrivals and receipts share
/// one timeline.
[[nodiscard]] double clock_s();
[[nodiscard]] inline tommy::TimePoint clock_now() {
  return tommy::TimePoint(clock_s());
}

/// A sample set. Percentiles are nearest-rank: the smallest sample with
/// at least ceil(q * n) samples at or below it.
class Samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] double bytes() const {
    return static_cast<double>(values_.capacity() * sizeof(double));
  }
  /// 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const;
  /// Samples strictly above the q-quantile: how well the sample supports
  /// that percentile (the benchmark asks for at least ten).
  [[nodiscard]] std::size_t beyond(double q) const;
  void clear() { values_.clear(); sorted_ = true; }

 private:
  void sort() const;
  mutable std::vector<double> values_;
  mutable bool sorted_{true};
};

/// Median and quartiles of repeated measurements of one metric.
struct Spread {
  double median{0};
  double q1{0};
  double q3{0};
  /// (q3 - q1) / |median|; 0 for fewer than two values or a zero median.
  double rel_iqr{0};
  std::size_t n{0};
};
[[nodiscard]] Spread spread_of(std::vector<double> values);

/// One recorded span: a call the benchmark made into a layer (or a
/// harness phase that parents such calls).
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into the same tracer, or -1
  std::uint64_t tag;    // message id, rank or step, as the name says
  /// False when children of this span were sampled out or dropped; such
  /// a span's self time is unknown and self_time_ns skips it.
  bool complete{true};
  /// Calls this span stands for: the tracer's sampling stride for a
  /// leaf (a span from record()), 1 for a span from open().
  std::uint32_t weight{1};
  bool leaf{false};
  /// A leaf is kept while the stride is at most 2^level.
  std::uint8_t level{0};
};

/// Per-thread span recorder. Spans stay in memory and are written when
/// the run ends. Leaf spans (record()) are a uniform sample: when the
/// store reaches its cap the stride doubles and every stored leaf whose
/// hash does not meet it is discarded, so a run of any length keeps at
/// most `cap` spans, about 1 in `stride()` of its leaf calls, each
/// weighted by the stride. Spans from open() are always kept; past the
/// cap with no leaves left to thin they are counted in dropped().
class Tracer {
 public:
  explicit Tracer(bool enabled = false, std::size_t cap = 200000)
      : enabled_(enabled), cap_(cap) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Opens a span; returns its index (or -1 when not stored). Spans nest:
  /// close() ends the innermost open one, wherever thinning moved it.
  std::int32_t open(const char* name, std::uint64_t tag = 0);
  void close(std::int32_t index);
  /// Records a finished leaf span under the innermost open span.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t tag = 0);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Leaf calls recorded (kept or not) and the current sampling stride.
  [[nodiscard]] std::uint64_t leaf_calls() const { return leaf_calls_; }
  [[nodiscard]] std::uint32_t stride() const { return 1U << stride_log2_; }

 private:
  /// Doubles the stride and discards the leaves it no longer keeps;
  /// false when there is nothing left to thin.
  bool thin();
  /// Index of the innermost open span, or -1.
  [[nodiscard]] std::int32_t top() const;

  bool enabled_;
  std::size_t cap_;
  std::vector<Span> spans_;
  /// Open spans: index (or -1) and the skip count when each was opened.
  std::vector<std::pair<std::int32_t, std::uint64_t>> stack_;
  std::uint64_t dropped_{0};
  std::uint64_t skipped_{0};  // leaf calls not stored at record time
  std::uint64_t leaf_calls_{0};
  std::uint32_t stride_log2_{0};
};

/// Monotonic nanoseconds (the span time base).
[[nodiscard]] std::int64_t now_ns();

/// Self time per span name, in ns: each span's duration minus the part
/// of its interval that its direct children cover, times its weight (a
/// sampled leaf stands for `weight` calls). Spans whose children were
/// sampled out or dropped are left out.
[[nodiscard]] std::map<std::string, double> self_time_ns(
    const std::vector<Span>& spans);

/// "spans stored=N leaf_calls=N stride=N dropped=N" for a detail line.
[[nodiscard]] std::string span_summary(const Tracer& tracer);

/// Writes spans as JSON lines (name, start, end, parent, tag, weight).
void write_spans(const std::string& path, const std::vector<Span>& spans);

/// Outcome of probing one offered rate.
struct Probe {
  bool ok{false};  // latency limit met and no growing backlog
  double p99_ms{0};
};

/// Highest rate on the geometric grid lo * ratio^k (k = 0..max_steps)
/// whose probe passes. The search starts at step `start`, gallops up
/// while probes pass or down while they fail, by strides of 1, 2 and
/// then 4 steps, and bisects between the last pass and the first
/// failure. Returns 0 when lo itself fails. Assumes passing is
/// monotone in rate. `probes` receives every (rate, outcome) tried.
[[nodiscard]] double sustained_rate(
    double lo, double ratio, int max_steps, int start,
    const std::function<Probe(double)>& probe,
    std::vector<std::pair<double, Probe>>* probes = nullptr);

/// CPU time the hypervisor took from this machine's vCPUs (the `steal`
/// column of /proc/stat), sampled every 10 ms on a thread of its own
/// while started. Stolen time is outside the program under test, so the
/// wall-clock workloads use it to tell host disturbances from the
/// system's own latency. Without /proc/stat nothing is ever stolen.
class StealMonitor {
 public:
  StealMonitor() = default;
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;
  ~StealMonitor() { stop(); }
  void start();
  void stop();
  /// Seconds stolen (summed over vCPUs) between the last sample at or
  /// before `from` and the first at or after `to`; 0 without samples.
  [[nodiscard]] double stolen_s(double from, double to) const;

 private:
  void loop();
  mutable std::mutex mutex_;
  std::vector<std::pair<double, std::uint64_t>> samples_;  // (clock_s, ticks)
  std::thread thread_;
  std::atomic<bool> stop_{false};
};

/// Live heap bytes (all arenas, mmapped chunks included), in MB. Unlike
/// RSS it falls when memory is freed, so repetitions in one process each
/// see their own growth.
[[nodiscard]] double heap_mb();

/// FNV-1a over a byte range, chained through `h`.
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, const void* data,
                                  std::size_t n);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// A named metric value with its unit.
struct Metric {
  double value{0};
  std::string unit;
};

/// Everything one workload run reports. `metrics` holds the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run);
/// `details` are printed before the result line for people, not parsed.
struct Result {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, Metric> metrics;
  std::vector<std::string> details;
  std::vector<std::string> errors;
  /// Per-metric spread over the run's repetitions.
  std::map<std::string, Spread> spreads;
  std::size_t repetitions{0};

  void fail(std::string why);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Sets the metric to the median of `values` and records their spread.
  void set_median(const std::string& name, const std::vector<double>& values,
                  const std::string& unit);
  void detail(std::string line) { details.push_back(std::move(line)); }
};

/// The JSON object for `result`'s metrics, attempted/failed/correct.
[[nodiscard]] std::string result_json(const Result& result);
/// JSON-escapes `s` (quotes included).
[[nodiscard]] std::string json_string(const std::string& s);
/// Fixed-point formatting helper for detail lines.
[[nodiscard]] std::string fmt(double v, int digits = 3);

struct RunOptions {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string work_dir;  // sockets and span files, under the build directory
};

}  // namespace pb
