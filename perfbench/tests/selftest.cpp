// Self-tests of the benchmark's own measurement code: percentiles and
// sample counts, RAS on a hand-computed case, the sustained-rate search
// on a synthetic latency curve, and span self-time. Run by
// `python3 perfbench/run.py --selftest`; exits non-zero on any failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness_util.hpp"
#include "metrics/ras.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void percentiles_and_counts() {
  pb::Samples s;
  expect(s.count() == 0 && s.quantile(0.5) == 0.0, "empty samples read 0");
  for (int v = 100; v >= 1; --v) s.add(v);
  expect(s.count() == 100, "count");
  expect(s.quantile(0.5) == 50, "nearest-rank p50 of 1..100");
  expect(s.quantile(0.99) == 99, "nearest-rank p99 of 1..100");
  expect(s.quantile(1.0) == 100, "p100 is the max");
  expect(s.beyond(0.99) == 1, "one sample beyond p99 of 100");
  expect(s.beyond(0.9) == 10, "ten samples beyond p90 of 100");
  expect(near(s.mean(), 50.5) && s.max() == 100, "mean and max");
  s.add(0.5);  // adding after a percentile read must re-sort
  expect(s.quantile(0.0) == 0.5, "re-sorts after add");

  // Quartiles as Python's statistics.quantiles(range(1, 11), n=4) gives
  // them: [2.75, 5.5, 8.25].
  std::vector<double> v{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  const pb::Spread spread = pb::spread_of(v);
  expect(near(spread.q1, 2.75) && near(spread.q3, 8.25), "quartiles");
  expect(near(spread.median, 5.5), "median");
  expect(near(spread.rel_iqr, 1.0), "relative IQR");
  expect(spread.n == 10, "spread count");
}

void ras_hand_case() {
  using tommy::ClientId;
  using tommy::MessageId;
  using tommy::TimePoint;
  // True order m1 < m2 < m3 < m4, ranks 0, 1, 1, 0. Pairs by true order:
  // (1,2) +1, (1,3) +1, (1,4) 0, (2,3) 0, (2,4) -1, (3,4) -1.
  const std::vector<tommy::metrics::RankedMessage> ranked{
      {MessageId(1), ClientId(0), TimePoint(1.0), 0},
      {MessageId(2), ClientId(1), TimePoint(2.0), 1},
      {MessageId(3), ClientId(2), TimePoint(3.0), 1},
      {MessageId(4), ClientId(3), TimePoint(4.0), 0}};
  const auto ras = tommy::metrics::rank_agreement(ranked);
  expect(ras.pairs == 6 && ras.correct == 2 && ras.incorrect == 2
             && ras.indifferent == 2,
         "RAS buckets on the hand case");
  expect(ras.score == 0 && near(ras.normalized(), 0.0), "RAS score 0");

  const std::vector<tommy::metrics::RankedMessage> perfect{
      {MessageId(1), ClientId(0), TimePoint(1.0), 0},
      {MessageId(2), ClientId(0), TimePoint(2.0), 1},
      {MessageId(3), ClientId(0), TimePoint(3.0), 2}};
  expect(near(tommy::metrics::rank_agreement(perfect).normalized(), 1.0),
         "RAS 1 for the true order");
}

void sustained_search() {
  // Synthetic curve: p99 = 1 ms + 4 ms * (rate / capacity)^8, so the
  // 5 ms limit is met exactly up to `capacity`.
  const double capacity = 97'000;
  int calls = 0;
  auto probe = [&](double rate) {
    ++calls;
    const double p99 = 1.0 + 4.0 * std::pow(rate / capacity, 8);
    return pb::Probe{p99 <= 5.0, p99};
  };
  std::vector<std::pair<double, pb::Probe>> probes;
  const double expected = 40'000 * std::pow(1.06, 15);  // last grid point
  for (int start : {0, 4, 15, 16, 30, 64}) {
    probes.clear();
    const double found =
        pb::sustained_rate(40'000, 1.06, 64, start, probe, &probes);
    expect(near(found, expected, 1e-6), "highest passing grid rate");
    // 1 + the gallop (strides 1, 2, then 4) + at most 2 bisections.
    const int distance = start > 15 ? start - 15 : 15 - start;
    expect(static_cast<int>(probes.size()) <= 6 + distance / 4,
           "probe count bounded by the distance to capacity");
    double highest_probed = 0;
    for (const auto& [rate, outcome] : probes) {
      if (rate > highest_probed) highest_probed = rate;
    }
    expect(start > 15 || highest_probed <= expected * std::pow(1.06, 4) * 1.000001,
           "galloping up overshoots the capacity by at most 4 grid steps");
  }
  expect(expected <= capacity && expected * 1.06 > capacity,
         "within one grid step of the capacity");
  calls = 0;
  probes.clear();
  (void)pb::sustained_rate(40'000, 1.06, 64, 0, probe, &probes);
  expect(calls == static_cast<int>(probes.size()), "every probe recorded");

  calls = 0;
  expect(pb::sustained_rate(200'000, 1.06, 64, 5, probe) == 0 && calls <= 5,
         "a failing lowest grid point reads 0");
  expect(near(pb::sustained_rate(1'000, 1.06, 8, 3, probe),
              1'000 * std::pow(1.06, 8), 1e-6),
         "a curve past the grid returns the top");
}

void span_self_time() {
  // parent [0, 100] with children [10, 30], [20, 40] (overlapping) and
  // [90, 120] (overhanging): covered = [10, 40] + [90, 100] = 40.
  const std::vector<pb::Span> spans{{"parent", 0, 100, -1, 0},
                                    {"child", 10, 30, 0, 0},
                                    {"child", 20, 40, 0, 0},
                                    {"late", 90, 120, 0, 0},
                                    {"grandchild", 12, 18, 1, 0}};
  const auto self = pb::self_time_ns(spans);
  expect(near(self.at("parent"), 60), "parent self time");
  expect(near(self.at("child"), 20 - 6 + 20), "child self time");
  expect(near(self.at("late"), 30), "overhanging child self time");
  expect(near(self.at("grandchild"), 6), "leaf self time");

  // Past the cap the tracer keeps a uniform sample of the leaves, each
  // weighted by the stride: 100,000 calls of 10 ns under one parent.
  pb::Tracer sampled(true, 1000);
  const auto outer = sampled.open("outer");
  for (std::int64_t i = 0; i < 100'000; ++i) {
    sampled.record("leaf", 1000 + 20 * i, 1010 + 20 * i, i);
  }
  sampled.close(outer);
  const auto& kept = sampled.spans();
  const std::uint32_t stride = sampled.stride();
  expect(kept.size() <= 1000 && kept.size() >= 400, "sample fits the cap");
  expect(stride >= 128 && (stride & (stride - 1)) == 0,
         "stride is a power of two past calls / cap");
  expect(sampled.leaf_calls() == 100'000 && sampled.dropped() == 0,
         "every leaf call counted, none dropped");
  bool parented = kept[0].leaf == false;
  for (std::size_t i = 1; i < kept.size(); ++i) {
    parented &= kept[i].parent == 0 && kept[i].weight == stride;
  }
  expect(parented, "kept leaves point at their parent with the stride as weight");
  expect(!kept[0].complete && kept[0].end_ns > 0, "sampled parent closed, incomplete");
  const auto sampled_self = pb::self_time_ns(kept);
  expect(sampled_self.count("outer") == 0, "sampled parent left out of self time");
  expect(std::fabs(sampled_self.at("leaf") / 1e6 - 1.0) < 0.15,
         "weighted leaf self time estimates the total (1 ms)");

  // Spans from open() are never thinned: past the cap they are dropped,
  // and their ancestors lose their self time.
  pb::Tracer capped(true, 2);
  const auto a = capped.open("a");
  const auto b = capped.open("b");
  const auto c = capped.open("c");
  expect(c == -1 && capped.dropped() == 1, "open past the cap is dropped");
  capped.close(c);
  capped.close(b);
  capped.close(a);
  expect(capped.spans().size() == 2 && capped.spans()[1].parent == 0,
         "stored opens keep their parents");
  expect(!capped.spans()[0].complete && !capped.spans()[1].complete,
         "ancestors of a dropped span are incomplete");
  expect(pb::self_time_ns(capped.spans()).empty(), "no self time for them");
}

}  // namespace

int main() {
  percentiles_and_counts();
  ras_hand_case();
  sustained_search();
  span_self_time();
  std::printf("%s (%d failures)\n", failures ? "FAILED" : "ok", failures);
  return failures ? 1 : 0;
}
