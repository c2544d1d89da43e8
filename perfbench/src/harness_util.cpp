#include "harness_util.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pb {

namespace {
const std::chrono::steady_clock::time_point kOrigin =
    std::chrono::steady_clock::now();
}  // namespace

double clock_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                       - kOrigin)
      .count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kOrigin)
      .count();
}

// ── Samples ─────────────────────────────────────────────────────────────

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  sort();
  const double n = static_cast<double>(values_.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

std::size_t Samples::beyond(double q) const {
  if (values_.empty()) return 0;
  const double v = quantile(q);
  return static_cast<std::size_t>(
      values_.end() - std::upper_bound(values_.begin(), values_.end(), v));
}

double Samples::sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

Spread spread_of(std::vector<double> values) {
  Spread s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  // Linear interpolation between order statistics (Python's
  // statistics.quantiles "exclusive" method, n = 4, for n >= 2).
  auto at = [&](double p) {
    const double n = static_cast<double>(values.size());
    double pos = p * (n + 1) - 1;
    pos = std::clamp(pos, 0.0, n - 1);
    const auto i = static_cast<std::size_t>(std::floor(pos));
    const double frac = pos - static_cast<double>(i);
    if (i + 1 >= values.size()) return values.back();
    return values[i] + frac * (values[i + 1] - values[i]);
  };
  const std::size_t n = values.size();
  s.median = n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n < 2) return s;
  s.q1 = at(0.25);
  s.q3 = at(0.75);
  s.rel_iqr = s.median != 0 ? (s.q3 - s.q1) / std::fabs(s.median) : 0.0;
  return s;
}

// ── Tracing ─────────────────────────────────────────────────────────────

namespace {
/// splitmix64: the hash that gives each leaf call its sampling level.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
constexpr std::uint32_t kMaxStrideLog2 = 31;
}  // namespace

std::int32_t Tracer::top() const {
  return stack_.empty() ? -1 : stack_.back().first;
}

bool Tracer::thin() {
  const bool any_leaf = std::any_of(spans_.begin(), spans_.end(),
                                    [](const Span& s) { return s.leaf; });
  if (!any_leaf || stride_log2_ >= kMaxStrideLog2) return false;
  const std::uint32_t keep = stride_log2_ + 1;
  stride_log2_ = keep;
  std::vector<std::int32_t> moved(spans_.size(), -1);
  std::size_t out = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.leaf && s.level < keep) {
      if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].complete = false;
      continue;
    }
    moved[i] = static_cast<std::int32_t>(out);
    spans_[out++] = s;
  }
  spans_.resize(out);
  for (Span& s : spans_) {
    if (s.parent >= 0) s.parent = moved[static_cast<std::size_t>(s.parent)];
    if (s.leaf) s.weight = stride();
  }
  for (auto& entry : stack_) {
    if (entry.first >= 0) entry.first = moved[static_cast<std::size_t>(entry.first)];
  }
  return true;
}

std::int32_t Tracer::open(const char* name, std::uint64_t tag) {
  if (!enabled_) return -1;
  while (spans_.size() >= cap_) {
    if (!thin()) {
      ++dropped_;
      ++skipped_;
      stack_.emplace_back(-1, skipped_);
      return -1;
    }
  }
  spans_.push_back(Span{name, now_ns(), 0, top(), tag});
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.emplace_back(index, skipped_);
  return index;
}

void Tracer::close(std::int32_t index) {
  if (!enabled_) return;
  std::uint64_t skipped_at_open = skipped_;
  if (!stack_.empty()) {
    index = stack_.back().first;  // thinning may have moved it
    skipped_at_open = stack_.back().second;
    stack_.pop_back();
  }
  if (index >= 0) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = now_ns();
    span.complete = span.complete && skipped_ == skipped_at_open;
  }
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t tag) {
  if (!enabled_) return;
  ++leaf_calls_;
  const auto level = static_cast<std::uint8_t>(
      std::min<int>(std::countr_zero(mix(leaf_calls_)), kMaxStrideLog2));
  while (level >= stride_log2_ && spans_.size() >= cap_) {
    if (!thin()) {
      ++dropped_;
      ++skipped_;
      return;
    }
  }
  if (level < stride_log2_) {
    ++skipped_;
    return;
  }
  Span span{name, start_ns, end_ns, top(), tag};
  span.weight = stride();
  span.leaf = true;
  span.level = level;
  spans_.push_back(span);
}

std::map<std::string, double> self_time_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                               s.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!s.complete) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered)
                    * static_cast<double>(s.weight);
  }
  return self;
}

std::string span_summary(const Tracer& tracer) {
  return "spans stored=" + std::to_string(tracer.spans().size())
         + " leaf_calls=" + std::to_string(tracer.leaf_calls())
         + " stride=" + std::to_string(tracer.stride())
         + " dropped=" + std::to_string(tracer.dropped());
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"tag\":" << s.tag << ",\"weight\":" << s.weight << "}\n";
  }
}

// ── Sustained-rate search ───────────────────────────────────────────────

double sustained_rate(double lo, double ratio, int max_steps, int start,
                      const std::function<Probe(double)>& probe,
                      std::vector<std::pair<double, Probe>>* probes) {
  auto rate_at = [&](int k) { return lo * std::pow(ratio, k); };
  auto run = [&](int k) {
    const double rate = rate_at(k);
    const Probe p = probe(rate);
    if (probes) probes->emplace_back(rate, p);
    return p.ok;
  };
  // Gallop strides double up to this many grid steps, so a probe never
  // offers more than ratio^kMaxStride times a rate known to pass: a probe
  // far past capacity leaves a backlog that takes seconds to drain.
  constexpr int kMaxStride = 4;
  start = std::clamp(start, 0, max_steps);
  int pass = -1;  // highest step known to pass (-1: none)
  int fail = -1;  // lowest step known to fail (-1: none)
  if (run(start)) {
    pass = start;
    for (int d = 1; fail < 0; d = std::min(2 * d, kMaxStride)) {
      if (pass == max_steps) return rate_at(max_steps);
      const int k = std::min(pass + d, max_steps);
      if (run(k)) {
        pass = k;
      } else {
        fail = k;
      }
    }
  } else {
    fail = start;
    for (int d = 1; pass < 0; d = std::min(2 * d, kMaxStride)) {
      if (fail == 0) return 0;
      const int k = std::max(fail - d, 0);
      if (run(k)) {
        pass = k;
      } else {
        fail = k;
      }
    }
  }
  while (fail - pass > 1) {
    const int mid = (pass + fail) / 2;
    if (run(mid)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  return rate_at(pass);
}

// ── Host steal ──────────────────────────────────────────────────────────

namespace {
/// The steal column of /proc/stat's aggregate "cpu" line, in clock ticks.
bool read_steal_ticks(int fd, std::uint64_t& ticks) {
  char buf[512];
  const ssize_t n = ::pread(fd, buf, sizeof buf - 1, 0);
  if (n <= 0) return false;
  buf[n] = '\0';
  unsigned long long f[8];
  if (std::sscanf(buf, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &f[0],
                  &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7])
      != 8) {
    return false;
  }
  ticks = f[7];
  return true;
}
}  // namespace

void StealMonitor::start() {
  stop_.store(false);
  thread_ = std::thread([this] { loop(); });
}

void StealMonitor::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void StealMonitor::loop() {
  const int fd = ::open("/proc/stat", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  while (!stop_.load(std::memory_order_relaxed)) {
    std::uint64_t ticks = 0;
    if (!read_steal_ticks(fd, ticks)) break;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      samples_.emplace_back(clock_s(), ticks);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::close(fd);
}

double StealMonitor::stolen_s(double from, double to) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (samples_.empty()) return 0;
  auto after = [](double t) {
    return [t](const std::pair<double, std::uint64_t>& s) {
      return s.first >= t;
    };
  };
  auto first = std::find_if(samples_.begin(), samples_.end(), after(from));
  if (first != samples_.begin() && (first == samples_.end() || first->first > from)) {
    --first;
  }
  auto last = std::find_if(first, samples_.end(), after(to));
  if (last == samples_.end()) --last;
  static const double kTicksPerSecond =
      static_cast<double>(::sysconf(_SC_CLK_TCK));
  return static_cast<double>(last->second - first->second) / kTicksPerSecond;
}

// ── Process and output ──────────────────────────────────────────────────

double heap_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void Result::fail(std::string why) {
  correct = false;
  errors.push_back(std::move(why));
}

void Result::set_median(const std::string& name,
                        const std::vector<double>& values,
                        const std::string& unit) {
  const Spread s = spread_of(values);
  spreads[name] = s;
  set(name, s.median, unit);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string result_json(const Result& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
        << value << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace pb
