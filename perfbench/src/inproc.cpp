// In-process workloads on a modeled clock: the harness hosts a
// FairOrderingService, opens one session per client and replays a
// pre-generated, arrival-sorted list of submits, heartbeats and polls.
// Every modeled instant is passed as the `now` of the call, so emissions
// (and the hold and release latencies derived from them) are a pure
// function of the seed; only the wall time the calls take varies.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "common/rng.hpp"
#include "core/preceding.hpp"
#include "core/service.hpp"
#include "metrics/ras.hpp"
#include "sim/population.hpp"
#include "sim/workload.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace tommy;

enum class OpKind : std::uint8_t { kMessage, kHeartbeat, kPoll };

struct Op {
  double at;     // modeled arrival (the `now` of the call)
  double stamp;  // client's local stamp: true time - theta
  std::uint64_t id;
  std::uint32_t client;  // index into the population
  OpKind kind;
};

/// One repetition's input: both fixed loads as consecutive phases of one
/// modeled timeline (phase 0 = low, phase 1 = high), as an arrival-sorted
/// call list plus the ground truth the checks and scores need.
struct Input {
  std::vector<Op> ops;
  std::vector<double> true_time;  // by message id
  std::vector<std::uint32_t> client_of;
  std::vector<std::uint8_t> phase_of;
};

constexpr double kHeartbeat = 1e-3;
constexpr double kPollInterval = 100e-6;
// Modeled one-way delay per client, fixed so each client's channel is
// FIFO; drawn from the seed.
constexpr double kDelayMin = 20e-6;
constexpr double kDelayMax = 80e-6;
// Modeled time after each phase's last generation event before the next
// phase (or the end), so every message clears the gates through
// heartbeats and polls alone; a shutdown flush would release early.
constexpr double kDrain = 20e-3;

Input make_input(const sim::Population& population,
                 const std::vector<sim::GenEvent> (&phases)[2], Rng& rng) {
  Input input;
  const auto& clients = population.clients();
  std::unordered_map<std::uint32_t, std::uint32_t> index;
  std::vector<double> delay(clients.size());
  std::vector<double> phase(clients.size());
  for (std::uint32_t c = 0; c < clients.size(); ++c) {
    index[clients[c].id.value()] = c;
    delay[c] = rng.uniform(kDelayMin, kDelayMax);
    phase[c] = rng.uniform(0.0, kHeartbeat);
  }
  const std::size_t n = phases[0].size() + phases[1].size();
  input.ops.reserve(n * 4);
  input.true_time.reserve(n);
  input.client_of.reserve(n);
  input.phase_of.reserve(n);
  double offset = 0;
  for (std::uint8_t p = 0; p < 2; ++p) {
    double last = offset;
    for (const sim::GenEvent& e : phases[p]) {
      const std::uint32_t c = index.at(e.client.value());
      const double t = offset + e.true_time.seconds();
      const double theta = clients[c].offset->sample(rng);
      input.ops.push_back(Op{t + delay[c], t - theta, input.true_time.size(),
                             c, OpKind::kMessage});
      input.true_time.push_back(t);
      input.client_of.push_back(c);
      input.phase_of.push_back(p);
      last = std::max(last, t);
    }
    offset = last + kDrain;
  }
  const double end = offset;
  for (std::uint32_t c = 0; c < clients.size(); ++c) {
    for (double t = phase[c]; t <= end; t += kHeartbeat) {
      const double theta = clients[c].offset->sample(rng);
      input.ops.push_back(
          Op{t + delay[c], t - theta, 0, c, OpKind::kHeartbeat});
    }
  }
  for (double t = kPollInterval; t <= end + kDelayMax; t += kPollInterval) {
    input.ops.push_back(Op{t, 0, 0, 0, OpKind::kPoll});
  }
  std::stable_sort(input.ops.begin(), input.ops.end(),
                   [](const Op& a, const Op& b) {
                     return a.at < b.at || (a.at == b.at && a.kind < b.kind);
                   });
  return input;
}

/// Wall-time samples of the calls into `core`, taken only when tracing.
struct CoreTimes {
  Samples submit_ns, heartbeat_ns, poll_ns, pending;
  std::uint64_t polls{0}, useful_polls{0};
  double busy_s{0};
};

/// What one repetition produced.
struct RepRun {
  double setup_s{0};
  double drive_s{0};
  double heap_growth_mb{0};
  std::uint64_t digest{kFnvBasis};
  Samples release_ms[2], hold_ms, batch_msgs[2];
  double ras[2] = {0, 0};
  std::size_t violations{0};
  std::uint64_t missing{0};
  std::uint64_t flushed_msgs{0};
};

/// Hosts a fresh service over `population`, replays `input` through it
/// and scores what it emitted. Setup is timed from the registry's
/// construction to the return of the first submit.
RepRun drive(const char* name, const sim::Population& population,
             const core::OnlineConfig& online, const Input& input,
             Result& result, Tracer& tracer, CoreTimes* times) {
  RepRun run;
  const std::size_t n = input.true_time.size();
  std::vector<std::int64_t> rank_of(n, -1);
  std::vector<double> emitted_at(n, 0.0), safe_at(n, 0.0);
  std::vector<std::uint64_t> ids;
  ids.reserve(population.size() * 4);
  std::int64_t next_rank = 0;
  bool flushing = false;
  auto sink = [&](core::EmissionRecord&& record, std::uint32_t) {
    if (static_cast<std::int64_t>(record.batch.rank) != next_rank) {
      result.fail(std::string(name) + ": rank gap at "
                  + std::to_string(next_rank));
    }
    const double emit = record.emitted_at.seconds();
    const double safe = record.safe_time.seconds();
    if (!flushing && emit < safe) {
      result.fail(std::string(name) + ": batch released before its T_b");
    }
    ids.clear();
    for (const core::Message& m : record.batch.messages) {
      const std::uint64_t id = m.id.value();
      if (id >= n || rank_of[id] >= 0) {
        result.fail(std::string(name) + ": message released twice");
        continue;
      }
      rank_of[id] = next_rank;
      emitted_at[id] = emit;
      safe_at[id] = safe;
      ids.push_back(id);
      if (flushing) ++run.flushed_msgs;
    }
    std::sort(ids.begin(), ids.end());
    run.digest = fnv1a(run.digest, &next_rank, sizeof next_rank);
    run.digest = fnv1a(run.digest, ids.data(), ids.size() * sizeof(ids[0]));
    run.digest = fnv1a(run.digest, &emit, sizeof emit);
    run.digest = fnv1a(run.digest, &safe, sizeof safe);
    if (!ids.empty()) {
      run.batch_msgs[input.phase_of[ids.front()]].add(
          static_cast<double>(ids.size()));
    }
    ++next_rank;
  };
  for (auto& b : run.batch_msgs) b.reserve(n);

  const double t0 = clock_s();
  const auto setup_span = tracer.open("setup");
  core::ClientRegistry registry;
  population.seed_registry(registry);
  core::FairOrderingService service(
      registry, population.ids(), core::ServiceConfig{}.with_online(online));
  std::vector<core::FairOrderingService::Session> sessions;
  sessions.reserve(population.size());
  for (const auto& spec : population.clients()) {
    sessions.push_back(service.open_session(spec.id));
  }
  tracer.close(setup_span);
  const double heap_setup = heap_mb();

  const auto drive_span = tracer.open("drive");
  const double d0 = clock_s();
  bool first = true;
  for (const Op& op : input.ops) {
    const TimePoint now(op.at);
    switch (op.kind) {
      case OpKind::kMessage: {
        const std::int64_t a = times ? now_ns() : 0;
        sessions[op.client].submit(TimePoint(op.stamp), MessageId(op.id), now);
        if (times) {
          const std::int64_t b = now_ns();
          times->submit_ns.add(static_cast<double>(b - a));
          tracer.record("core.submit", a, b, op.id);
        }
        if (first) {
          run.setup_s = clock_s() - t0;
          first = false;
        }
        break;
      }
      case OpKind::kHeartbeat: {
        const std::int64_t a = times ? now_ns() : 0;
        sessions[op.client].heartbeat(TimePoint(op.stamp), now);
        if (times) {
          const std::int64_t b = now_ns();
          times->heartbeat_ns.add(static_cast<double>(b - a));
          tracer.record("core.heartbeat", a, b, op.client);
        }
        break;
      }
      case OpKind::kPoll: {
        const std::int64_t a = times ? now_ns() : 0;
        const std::size_t emitted = service.poll(now, sink);
        if (times) {
          const std::int64_t b = now_ns();
          times->poll_ns.add(static_cast<double>(b - a));
          tracer.record("core.poll", a, b, emitted);
          ++times->polls;
          times->useful_polls += emitted > 0 ? 1 : 0;
          times->pending.add(static_cast<double>(service.pending_count()));
        }
        break;
      }
    }
  }
  run.drive_s = clock_s() - d0;
  run.heap_growth_mb = heap_mb() - heap_setup;
  flushing = true;
  (void)service.flush(TimePoint(input.ops.back().at), sink);
  tracer.close(drive_span);
  run.violations = service.fairness_violations();
  if (times) times->busy_s += run.drive_s;

  std::vector<metrics::RankedMessage> ranked[2];
  for (std::size_t id = 0; id < n; ++id) {
    if (rank_of[id] < 0) {
      ++run.missing;
      continue;
    }
    const double truth = input.true_time[id];
    const std::uint8_t p = input.phase_of[id];
    run.release_ms[p].add((emitted_at[id] - truth) * 1e3);
    run.hold_ms.add((safe_at[id] - truth) * 1e3);
    ranked[p].push_back(metrics::RankedMessage{
        MessageId(id), population.clients()[input.client_of[id]].id,
        TimePoint(truth), static_cast<Rank>(rank_of[id])});
  }
  for (int p = 0; p < 2; ++p) {
    run.ras[p] = metrics::rank_agreement(ranked[p]).normalized();
  }
  if (run.missing > 0) {
    result.fail(std::string(name) + ": " + std::to_string(run.missing)
                + " messages never released");
  }
  return run;
}

/// Pins the calling thread to the next of the CPUs it may run on, in
/// turn per repetition. On a shared host each core runs at its own,
/// slowly drifting speed; rotating the repetitions over every core makes
/// each run sample all of them instead of whichever core the scheduler
/// happened to keep it on.
void pin_to_next_cpu(std::size_t repetition) {
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  if (allowed.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(allowed[repetition % allowed.size()], &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

struct InprocSpec {
  const char* name;
  sim::Population population;
  core::OnlineConfig online;
  Input input;
};

Result run_inproc(const InprocSpec& spec, const RunOptions& options) {
  Result result;
  Tracer tracer(options.trace);
  const double start = clock_s();
  // Traced runs spend half the budget untraced and half traced; the
  // ratio of the two drive rates is trace.overhead_frac.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const std::size_t n = spec.input.true_time.size();

  std::vector<double> setups, rates, traced_rates, heap_growth, hold_p50,
      hold_p99, ras, violations_per_m;
  std::vector<double> release_p50[2], release_p99[2];
  std::uint64_t digest = 0;
  CoreTimes times;
  Samples batches[2];

  auto one_rep = [&](CoreTimes* core_times, std::vector<double>& rate_out) {
    pin_to_next_cpu(result.repetitions);
    const auto rep_span = tracer.open("repetition", result.repetitions);
    const RepRun r = drive(spec.name, spec.population, spec.online,
                           spec.input, result, tracer, core_times);
    tracer.close(rep_span);
    result.attempted += n;
    result.failed += r.missing;
    rate_out.push_back(static_cast<double>(n) / r.drive_s);
    setups.push_back(r.setup_s);
    heap_growth.push_back(r.heap_growth_mb);
    for (int p = 0; p < 2; ++p) {
      release_p50[p].push_back(r.release_ms[p].quantile(0.5));
      release_p99[p].push_back(r.release_ms[p].quantile(0.99));
    }
    hold_p50.push_back(r.hold_ms.quantile(0.5));
    hold_p99.push_back(r.hold_ms.quantile(0.99));
    ras.push_back(0.5 * (r.ras[0] + r.ras[1]));
    violations_per_m.push_back(static_cast<double>(r.violations) * 1e6
                               / static_cast<double>(n));
    if (result.repetitions == 0) {
      digest = r.digest;
      for (int p = 0; p < 2; ++p) {
        batches[p] = r.batch_msgs[p];
        result.detail(
            std::string(spec.name) + (p ? " high" : " low") + ": msgs="
            + std::to_string(r.release_ms[p].count()) + " batches="
            + std::to_string(r.batch_msgs[p].count()) + " batch_mean="
            + fmt(r.batch_msgs[p].mean(), 1) + " batch_max="
            + fmt(r.batch_msgs[p].max(), 0) + " release_p50_ms="
            + fmt(r.release_ms[p].quantile(0.5), 4) + " release_p99_ms="
            + fmt(r.release_ms[p].quantile(0.99), 4) + " (beyond p99: "
            + std::to_string(r.release_ms[p].beyond(0.99)) + ") ras="
            + fmt(r.ras[p], 4));
      }
      result.detail(std::string(spec.name) + ": violations="
                    + std::to_string(r.violations) + " flushed_msgs="
                    + std::to_string(r.flushed_msgs) + " digest="
                    + std::to_string(r.digest));
    } else if (digest != r.digest) {
      result.fail(std::string(spec.name)
                  + ": emitted-stream digest differs across repetitions");
    }
    ++result.repetitions;
  };

  // Stop before a repetition that would overrun the budget (two at least,
  // so the digest is compared).
  double rep_s = 0;
  while (result.repetitions < 2 || clock_s() - start + rep_s <= budget) {
    const double r0 = clock_s();
    one_rep(nullptr, rates);
    rep_s = clock_s() - r0;
  }
  if (!options.trace) {
    result.set_median("setup_s", setups, "s");
    // The rate nine repetitions in ten meet or beat: on a shared host the
    // per-repetition rate swings by half between quiet and contended
    // moments, and this quantile is the steadier one across runs.
    Samples rate_samples;
    for (double r : rates) rate_samples.add(r);
    result.spreads["throughput_msgs_per_s"] = spread_of(rates);
    result.set("throughput_msgs_per_s", rate_samples.quantile(0.1), "1/s");
    result.set_median("release_p50_ms.low", release_p50[0], "ms");
    result.set_median("release_p99_ms.low", release_p99[0], "ms");
    result.set_median("release_p50_ms.high", release_p50[1], "ms");
    result.set_median("release_p99_ms.high", release_p99[1], "ms");
    result.set_median("hold_p50_ms", hold_p50, "ms");
    result.set_median("hold_p99_ms", hold_p99, "ms");
    result.set_median("fairness_ras", ras, "ratio");
    return result;
  }

  const double traced_start = clock_s();
  while (traced_rates.empty()
         || clock_s() - traced_start + rep_s <= budget) {
    one_rep(&times, traced_rates);
  }
  const double untraced_rate = spread_of(rates).median;
  const double traced_rate = spread_of(traced_rates).median;
  result.set("core.submit_ns.p50", times.submit_ns.quantile(0.5), "ns");
  result.set("core.submit_ns.p99", times.submit_ns.quantile(0.99), "ns");
  result.set("core.submit_ns.p999", times.submit_ns.quantile(0.999), "ns");
  result.set("core.heartbeat_ns.p50", times.heartbeat_ns.quantile(0.5), "ns");
  result.set("core.heartbeat_ns.p99", times.heartbeat_ns.quantile(0.99), "ns");
  result.set("core.poll_ns.p50", times.poll_ns.quantile(0.5), "ns");
  result.set("core.poll_ns.p99", times.poll_ns.quantile(0.99), "ns");
  result.set("core.poll_ns.p999", times.poll_ns.quantile(0.999), "ns");
  const double core_ns = times.submit_ns.sum() + times.heartbeat_ns.sum()
                         + times.poll_ns.sum();
  result.set("core.busy_frac",
             times.busy_s > 0 ? core_ns * 1e-9 / times.busy_s : 0, "ratio");
  result.set("core.poll_useful_ratio",
             times.polls ? static_cast<double>(times.useful_polls)
                               / static_cast<double>(times.polls)
                         : 0,
             "ratio");
  Samples all_batches = batches[0];
  all_batches.append(batches[1]);
  result.set("core.batch_msgs.mean", all_batches.mean(), "msgs");
  result.set("core.batch_msgs.max", all_batches.max(), "msgs");
  result.set("core.pending.max", times.pending.max(), "msgs");
  result.set("mem.heap_growth_mb", spread_of(heap_growth).median, "MB");
  result.set("violations_per_M", spread_of(violations_per_m).median, "1/M");
  const auto attempted = std::max<std::uint64_t>(1, result.attempted);
  result.set("failed_frac",
             static_cast<double>(result.failed)
                 / static_cast<double>(attempted),
             "ratio");
  result.set("trace.overhead_frac",
             traced_rate > 0 ? untraced_rate / traced_rate - 1.0 : 0, "ratio");

  measure_prefill(spec.population, spec.online, result, tracer);
  for (const auto& [span, ns] : self_time_ns(tracer.spans())) {
    result.detail("self_time " + span + " = " + fmt(ns * 1e-6, 3) + " ms");
  }
  result.detail(span_summary(tracer));
  if (!options.work_dir.empty()) {
    write_spans(options.work_dir + "/" + spec.name + ".spans.jsonl",
                tracer.spans());
  }
  return result;
}

}  // namespace

void measure_prefill(const sim::Population& population,
                     const core::OnlineConfig& online, Result& result,
                     Tracer& tracer) {
  core::ClientRegistry registry;
  population.seed_registry(registry);
  core::PrecedingEngine engine(registry, online.preceding);
  const std::int64_t a = now_ns();
  engine.prime(online.threshold, online.p_safe, true);
  const std::int64_t b = now_ns();
  tracer.record("stats.prime_prefill", a, b);
  const double pairs = static_cast<double>(population.size())
                       * static_cast<double>(population.size());
  result.set("stats.prefill_s", static_cast<double>(b - a) * 1e-9, "s");
  result.set("stats.ms_per_pair", static_cast<double>(b - a) * 1e-6 / pairs,
             "ms");
}

// The deployment (who the clients are and how their clocks err) is fixed
// per workload; the seed draws the traffic: generation times, clock
// errors, channel delays and heartbeat phases.

Result run_auction_burst(const RunOptions& options) {
  Rng population_rng(0xA0C7'10B5ULL);
  Rng rng(options.seed);
  sim::Population population =
      sim::gaussian_population(512, 20e-6, population_rng);
  const auto ids = population.ids();
  constexpr std::size_t kBursts = 64;
  // Low: a market event every 4 ms; high: every 1 ms. Each of the 512
  // clients answers within 800 us.
  const std::vector<sim::GenEvent> phases[2] = {
      sim::burst_workload(ids, kBursts, Duration::from_millis(4),
                          Duration::zero(), Duration::from_micros(800), rng),
      sim::burst_workload(ids, kBursts, Duration::from_millis(1),
                          Duration::zero(), Duration::from_micros(800), rng)};
  Input input = make_input(population, phases, rng);
  const InprocSpec spec{"auction_burst", std::move(population),
                        core::OnlineConfig{}, std::move(input)};
  return run_inproc(spec, options);
}

Result run_learned_clocks(const RunOptions& options) {
  Rng population_rng(0x1EA2'4EDCULL);
  Rng rng(options.seed);
  constexpr std::size_t kHalf = 32;
  constexpr double kScale = 50e-6;
  const sim::Population gumbel =
      sim::gumbel_population(kHalf, kScale, population_rng);
  const sim::Population bimodal =
      sim::bimodal_population(kHalf, kScale, population_rng);
  std::vector<sim::ClientSpec> clients;
  for (const auto& c : gumbel.clients()) {
    clients.push_back(sim::ClientSpec{c.id, c.offset->clone()});
  }
  for (const auto& c : bimodal.clients()) {
    clients.push_back(sim::ClientSpec{
        ClientId(static_cast<std::uint32_t>(c.id.value() + kHalf)),
        c.offset->clone()});
  }
  sim::Population population(std::move(clients));
  const auto ids = population.ids();
  constexpr std::size_t kMessages = 2000;
  // Low: one message every 200 us on average; high: every 50 us.
  const std::vector<sim::GenEvent> phases[2] = {
      sim::poisson_workload(ids, kMessages, Duration::from_micros(200), rng),
      sim::poisson_workload(ids, kMessages, Duration::from_micros(50), rng)};
  Input input = make_input(population, phases, rng);
  const InprocSpec spec{"learned_clocks", std::move(population),
                        core::OnlineConfig{}, std::move(input)};
  return run_inproc(spec, options);
}

}  // namespace pb
