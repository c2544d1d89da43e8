// Wall-clock workloads: the harness hosts the servers in-process, dials
// them over Unix sockets, and runs an open-loop Poisson generator on the
// run's one clock (clock_s). Each message is stamped with its scheduled
// generation time minus the client's sampled clock error, and its
// latency is timed from that scheduled time to the consumer's receipt of
// its batch, so a stall in the generator or the system counts against
// every message it delays.
//
// Threads: the generator (this thread) sends, drains every connection
// and records receipts; one pump thread calls the deployment's pump on
// the same clock every kPumpInterval. The servers' own threads are the
// library's.
#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "core/service.hpp"
#include "dist/merge_node.hpp"
#include "dist/shard_node.hpp"
#include "dist/topology.hpp"
#include "metrics/ras.hpp"
#include "net/acceptor.hpp"
#include "net/framing.hpp"
#include "sim/population.hpp"
#include "stats/summary.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace tommy;

constexpr double kHeartbeat = 1e-3;
constexpr double kPumpInterval = 100e-6;
/// The latency limit of the sustained-rate search, on release p99. Five
/// times the heartbeat interval: the gate alone may hold a message for up
/// to one heartbeat, so anything past this is overhead or queueing.
constexpr double kLatencyLimitMs = 5.0;
/// The two fixed offered rates (messages per second, all clients). At
/// the low rate the designed hold and the heartbeat gate set the release
/// latency.
constexpr double kLowRate = 4'000;
/// The high rate is 25 times the low one: per-message overhead and
/// queueing rather than the gate set the release latency. It is about
/// half (wire_ladder) and 0.4 (merge_topology) of the median sustained
/// rate the seed library reaches on a 4-vCPU x86-64 VM (~195k and ~240k
/// msg/s). Nearer capacity the release p99 of a run is not steady on such
/// a host, whose speed drifts by ~20%: at 0.6 of capacity it moved by 35%
/// between quiet runs, at 0.8 by up to 3x.
constexpr double kHighRate = 100'000;
/// The search grid: kGridFloor * kGridRatio^k. Steps of 6% are finer than
/// the rate metric's bound; the top is ~2.7M msg/s.
constexpr double kGridFloor = 10'000;
constexpr double kGridRatio = 1.06;
constexpr int kGridSteps = 96;
/// The merged stream may carry a later batch with an earlier safe_time
/// across release rounds (a node whose buffer was empty did not hold the
/// gate); the seed shows 0.05-0.1% of batches. More than this share
/// fails the run.
constexpr double kMaxMergeInversionFrac = 0.01;
/// Clock-error scale: microsecond-class sync, so batches stay small up to
/// the top of the ladder and the ladder measures program overhead rather
/// than batch chaining.
constexpr double kClockScale = 1e-6;
/// Heartbeats continue this long after a step's last message, so its
/// messages clear the completeness gate without a flush.
constexpr double kStepDrain = 10e-3;
/// Heartbeats start this long before a step's first message, so every
/// client has a recent one and its first messages meet the gate in its
/// steady state rather than after the pause between steps.
constexpr double kLeadIn = kHeartbeat;
/// How long past its drain a step may wait for stragglers.
constexpr double kStepTimeout = 0.5;
constexpr int kSetups = 41;
/// Rounds of the two fixed loads per run (see run_ladder).
constexpr int kRounds = 32;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Per-message ledger over the whole run, indexed by global message id.
struct Ledger {
  std::vector<double> due;    // scheduled generation time (shared clock)
  std::vector<double> stamp;  // due - theta
  std::vector<double> receipt;
  std::vector<std::int64_t> order;  // wire: rank; merge: merged position
  std::vector<std::uint32_t> client;
  std::vector<std::uint16_t> step;
  void grow(std::size_t n) {
    due.resize(n, kNaN);
    stamp.resize(n, kNaN);
    receipt.resize(n, kNaN);
    order.resize(n, -1);
    client.resize(n, 0);
    step.resize(n, 0);
  }
  [[nodiscard]] std::size_t size() const { return due.size(); }
};

/// A batch as the observing consumer received it.
struct Received {
  double receipt;
  std::uint32_t node;
  std::uint64_t rank;
  double safe_time;   // merge: from the frame; wire: computed after the run
  double emitted_at;  // merge only
  std::size_t first;  // into the flat id list
  std::size_t count;
};

/// One generator-side connection.
struct GenConn {
  std::shared_ptr<net::ByteStream> stream;
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_off{0};
  std::int32_t client{-1};  // client index; -1 for the merge downlink
  std::uint64_t next_rank{0};
  bool observer{false};  // records every batch it receives
};

/// Timer slack of 1 us for the calling thread, so the pump cadence and the
/// generator's sleeps land close to when they were asked for.
void set_fine_timer_slack() { (void)::prctl(PR_SET_TIMERSLACK, 1000UL); }

/// One pump tick, as the pump thread saw it.
struct PumpRec {
  double start;
  double end;
  std::uint32_t emitted[2];  // batches per node (wire: node 0 only)
};

/// Traced-only samples the pump thread takes.
struct PumpTrace {
  Samples pump_ns, merge_release_ns, ingest_lag, gate_lag_ms, held;
  Samples shard_pump_ns;
};

/// What the ladder needs from a deployment under test.
class Deployment {
 public:
  virtual ~Deployment() = default;
  /// One pump tick at `now`; fills rec.emitted.
  virtual void pump(double now, PumpRec& rec, PumpTrace* trace) = 0;
  [[nodiscard]] virtual net::FrontendTotals totals() const = 0;
  /// T_b of one message as the engine that ordered it computes it.
  [[nodiscard]] virtual double safe_time(const core::Message& m) const = 0;
  /// Sets the deployment's own per-layer metrics at the end of the run.
  virtual void finish(Result&, std::uint64_t /*messages*/) {}
  /// The ordering services' fairness_violations(), summed.
  [[nodiscard]] virtual std::size_t violations() const = 0;
  std::vector<GenConn> conns;  // client connections by index, then others
  std::size_t clients{0};
  bool merged{false};
};

std::vector<stats::DistributionSummary> summaries(
    const sim::Population& population) {
  std::vector<stats::DistributionSummary> out;
  for (const auto& c : population.clients()) {
    out.push_back(stats::DistributionSummary::describe(*c.offset));
  }
  return out;
}

/// Dials `endpoint` and announces `client`; returns the connection and
/// records the dial + announce time.
GenConn connect_client(const net::Endpoint& endpoint, std::uint32_t index,
                       ClientId id, const stats::DistributionSummary& summary,
                       Samples& connect_ms) {
  GenConn conn;
  const double t0 = clock_s();
  conn.stream = net::dial(endpoint, net::RetryPolicy{});
  if (conn.stream) {
    const auto frame = net::encode_frame(
        net::WireMessage(net::DistributionAnnouncement{id, summary}));
    if (!conn.stream->write_all(frame)) conn.stream.reset();
  }
  connect_ms.add((clock_s() - t0) * 1e3);
  conn.client = static_cast<std::int32_t>(index);
  return conn;
}

// ── wire_ladder: one FrameServer ────────────────────────────────────────

class WireDeployment final : public Deployment {
 public:
  WireDeployment(const sim::Population& population, const std::string& dir,
                 Samples& connect_ms)
      : service_(registry_for(population), population.ids()),
        server_(registry_, service_, server_config()) {
    path_ = dir + "/wire-" + std::to_string(::getpid()) + ".sock";
    if (!server_.listen_unix(path_)) return;
    const auto sums = summaries(population);
    clients = population.size();
    for (std::uint32_t c = 0; c < clients; ++c) {
      conns.push_back(connect_client(net::Endpoint{path_, 0}, c,
                                     population.clients()[c].id, sums[c],
                                     connect_ms));
    }
    if (!conns.empty()) conns[0].observer = true;
  }
  ~WireDeployment() override {
    for (auto& c : conns) {
      if (c.stream) c.stream->shutdown();
    }
    server_.stop();
  }

  void pump(double now, PumpRec& rec, PumpTrace* trace) override {
    const std::int64_t a = trace ? now_ns() : 0;
    rec.emitted[0] =
        static_cast<std::uint32_t>(server_.pump(TimePoint(now)));
    if (trace) {
      trace->pump_ns.add(static_cast<double>(now_ns() - a));
    }
  }
  net::FrontendTotals totals() const override {
    return server_.frontend().totals();
  }
  double safe_time(const core::Message& m) const override {
    return service_.engine()
        .safe_emission_time(m, core::OnlineConfig{}.p_safe)
        .seconds();
  }
  std::size_t violations() const override {
    return service_.fairness_violations();
  }

 private:
  core::ClientRegistry& registry_for(const sim::Population& population) {
    const auto sums = summaries(population);
    for (std::size_t c = 0; c < population.size(); ++c) {
      registry_.announce(population.clients()[c].id, sums[c]);
    }
    return registry_;
  }
  static net::ServerConfig server_config() {
    net::ServerConfig config;
    config.frontend.arrival_clock = [](const net::WireMessage&) {
      return clock_now();
    };
    return config;
  }

  core::ClientRegistry registry_;
  core::FairOrderingService service_;
  net::FrameServer server_;
  std::string path_;
};

// ── merge_topology: two ShardNodes + one MergeNode ─────────────────────

class MergeDeployment final : public Deployment {
 public:
  static constexpr std::uint32_t kNodes = 2;

  MergeDeployment(const sim::Population& population, const std::string& dir,
                  Samples& connect_ms) {
    merged = true;
    const auto sums = summaries(population);
    for (std::size_t c = 0; c < population.size(); ++c) {
      registry_.announce(population.clients()[c].id, sums[c]);
    }
    const std::string base = dir + "/merge-" + std::to_string(::getpid());
    std::vector<dist::NodeEndpoints> endpoints;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      endpoints.push_back(dist::NodeEndpoints{
          net::Endpoint{base + "-in" + std::to_string(n) + ".sock", 0},
          net::Endpoint{base + "-up" + std::to_string(n) + ".sock", 0}});
    }
    topology_ = std::make_unique<dist::Topology>(endpoints, population.ids());
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      dist::ShardNodeConfig config;
      config.node = n;
      config.frontend.arrival_clock = [](const net::WireMessage&) {
        return clock_now();
      };
      config.pump_clock = [] { return clock_now(); };
      nodes_.push_back(std::make_unique<dist::ShardNode>(
          registry_, topology_->partition(n), config));
      if (!nodes_[n]->listen_ingest(endpoints[n].ingest)
          || !nodes_[n]->listen_uplink(endpoints[n].uplink)) {
        return;
      }
    }
    merge_ = std::make_unique<dist::MergeNode>(kNodes);
    const std::string downlink = base + "-down.sock";
    if (!merge_->listen_downlink_unix(downlink)) return;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      if (!merge_->connect(n, endpoints[n].uplink)) return;
    }
    clients = population.size();
    for (std::uint32_t c = 0; c < clients; ++c) {
      const ClientId id = population.clients()[c].id;
      conns.push_back(connect_client(
          endpoints[topology_->node_for(id)].ingest, c, id, sums[c],
          connect_ms));
    }
    GenConn consumer;
    consumer.stream = net::dial(net::Endpoint{downlink, 0},
                                net::RetryPolicy{});
    consumer.observer = true;
    conns.push_back(std::move(consumer));
  }
  ~MergeDeployment() override {
    for (auto& c : conns) {
      if (c.stream) c.stream->shutdown();
    }
    if (merge_) merge_->stop();
    for (auto& node : nodes_) node->stop();
  }

  void pump(double now, PumpRec& rec, PumpTrace* trace) override {
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      const std::int64_t a = trace ? now_ns() : 0;
      rec.emitted[n] =
          static_cast<std::uint32_t>(nodes_[n]->pump(TimePoint(now)));
      if (trace) trace->shard_pump_ns.add(static_cast<double>(now_ns() - a));
    }
    const std::int64_t a = trace ? now_ns() : 0;
    (void)merge_->release();
    if (trace) {
      trace->merge_release_ns.add(static_cast<double>(now_ns() - a));
      const double gate = merge_->gate().seconds();
      if (std::isfinite(gate)) trace->gate_lag_ms.add((now - gate) * 1e3);
      trace->held.add(static_cast<double>(merge_->held_count()));
    }
  }
  net::FrontendTotals totals() const override {
    net::FrontendTotals sum;
    for (const auto& node : nodes_) {
      const auto t = node->server().frontend().totals();
      sum.submits_in += t.submits_in;
      sum.heartbeats_in += t.heartbeats_in;
      sum.frames_out += t.frames_out;
      sum.frames_dropped += t.frames_dropped;
      sum.bytes_out += t.bytes_out;
    }
    return sum;
  }
  double safe_time(const core::Message& m) const override {
    const std::uint32_t n = topology_->node_for(m.client);
    return nodes_[n]
        ->service()
        .engine()
        .safe_emission_time(m, core::OnlineConfig{}.p_safe)
        .seconds();
  }
  std::size_t violations() const override {
    std::size_t sum = 0;
    for (const auto& node : nodes_) {
      sum += node->service().fairness_violations();
    }
    return sum;
  }
  void finish(Result& result, std::uint64_t messages) override {
    double retained = 0;
    for (const auto& node : nodes_) {
      retained += static_cast<double>(node->frames_retained());
    }
    result.set("dist.retained_frames", retained, "frames");
    result.set("dist.uplink_frames_per_msg",
               messages ? retained / static_cast<double>(messages) : 0,
               "frames/msg");
  }

 private:
  core::ClientRegistry registry_;
  std::unique_ptr<dist::Topology> topology_;
  std::vector<std::unique_ptr<dist::ShardNode>> nodes_;
  std::unique_ptr<dist::MergeNode> merge_;
};

// ── The ladder ──────────────────────────────────────────────────────────

/// One open-loop step. Its messages are split by scheduled time into
/// equal windows and percentiles are taken per window, so one scheduling
/// hiccup on the host moves one window, not the step. Each window also
/// records the CPU time the hypervisor stole from the machine while it
/// ran (and while its last messages could still be released within the
/// latency limit).
struct StepResult {
  double rate{0};
  std::size_t first_id{0};
  std::size_t end_id{0};
  Samples latency_ms;  // receipt - due, missing counted as +inf
  Samples late_ms;     // send - due
  std::vector<Samples> window_latency_ms;
  std::vector<Samples> window_late_ms;
  std::vector<double> window_stolen_s;
  std::uint64_t missing{0};
  double write_block_s{0};

  [[nodiscard]] std::size_t stolen_windows() const {
    return static_cast<std::size_t>(std::count_if(
        window_stolen_s.begin(), window_stolen_s.end(),
        [](double s) { return s > 0; }));
  }
  /// Median over the windows of their q-quantile, taken over the windows
  /// without host steal, or over the half with the least steal when
  /// fewer are clean. Steal stalls every thread of the system and the
  /// generator at once and is not a property of the program; the choice
  /// of windows never looks at their latency.
  [[nodiscard]] double windowed(const std::vector<Samples>& windows,
                                double q) const {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (windows[i].count() > 0) order.push_back(i);
    }
    auto stolen = [&](std::size_t i) {
      return i < window_stolen_s.size() ? window_stolen_s[i] : 0.0;
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return stolen(a) < stolen(b);
                     });
    const auto clean = static_cast<std::size_t>(std::count_if(
        order.begin(), order.end(),
        [&](std::size_t i) { return stolen(i) == 0; }));
    order.resize(std::max(clean, (order.size() + 1) / 2));
    std::vector<double> values;
    for (std::size_t i : order) values.push_back(windows[i].quantile(q));
    return spread_of(values).median;
  }
  [[nodiscard]] double bytes() const {
    double b = latency_ms.bytes() + late_ms.bytes();
    for (const Samples& w : window_latency_ms) b += w.bytes();
    for (const Samples& w : window_late_ms) b += w.bytes();
    return b;
  }
  /// The median of the per-window p99s, reported for the fixed loads and
  /// used by ok(): a host disturbance moves the windows it lands in, and
  /// the median moves once it lands in half of them.
  [[nodiscard]] double p99_ms() const {
    return windowed(window_latency_ms, 0.99);
  }
  /// The rate is sustained: every message released, the median window
  /// p99 and the generator's own lateness within the limit, and the last
  /// window's median within it too (a growing backlog ends the step
  /// with every message late).
  [[nodiscard]] bool ok() const {
    return missing == 0 && p99_ms() <= kLatencyLimitMs
           && windowed(window_late_ms, 0.99) <= kLatencyLimitMs
           && !window_latency_ms.empty()
           && window_latency_ms.back().quantile(0.5) <= kLatencyLimitMs;
  }
};

class Ladder {
 public:
  Ladder(Deployment& dep, const sim::Population& population, Rng& rng,
         Result& result, Tracer& tracer, const StealMonitor& steal)
      : dep_(dep), population_(population), rng_(rng), result_(result),
        tracer_(tracer), steal_(steal) {
    buffer_.resize(1 << 16);
    pumps_.reserve(1 << 20);
  }

  void start_pump() {
    stop_.store(false);
    pump_thread_ = std::thread([this] { pump_loop(); });
  }
  void stop_pump() {
    stop_.store(true);
    if (pump_thread_.joinable()) pump_thread_.join();
  }
  void set_traced(bool on) {
    traced_.store(on);
    gen_traced_ = on && tracer_.enabled();
  }

  /// Runs one open-loop step at `rate` for `duration` seconds (rate 0:
  /// heartbeats only) and waits for its messages.
  StepResult run_step(double rate, double duration, int windows,
                      std::uint16_t index) {
    struct Item {
      double off;
      double theta;
      std::uint64_t id;  // kNoId for heartbeats
      std::uint32_t client;
    };
    constexpr std::uint64_t kNoId = ~0ULL;
    const auto& clients = population_.clients();
    std::vector<Item> items;
    StepResult step;
    step.rate = rate;
    step.first_id = ledger_.size();
    std::uint64_t next_id = step.first_id;
    if (rate > 0) {
      for (double t = kLeadIn + rng_.exponential(1.0 / rate);
           t < kLeadIn + duration; t += rng_.exponential(1.0 / rate)) {
        const auto c = static_cast<std::uint32_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(dep_.clients) - 1));
        items.push_back(Item{t, clients[c].offset->sample(rng_), next_id++, c});
      }
    }
    // Heartbeat phases are staggered evenly across the clients: random
    // phases would make the gate's wait at low rates a property of the
    // seed rather than of the system.
    for (std::uint32_t c = 0; c < dep_.clients; ++c) {
      const double phase =
          kHeartbeat * (c + 0.5) / static_cast<double>(dep_.clients);
      for (double t = phase; t < kLeadIn + duration + kStepDrain;
           t += kHeartbeat) {
        items.push_back(Item{t, clients[c].offset->sample(rng_), kNoId, c});
      }
    }
    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return a.off < b.off; });
    step.end_id = next_id;
    ledger_.grow(step.end_id);
    if (received_.size() <= index) received_.resize(index + 1, 0);
    step.latency_ms.reserve(step.end_id - step.first_id);
    step.late_ms.reserve(step.end_id - step.first_id);
    late_.assign(step.end_id - step.first_id, 0.0);
    for (const Item& item : items) {
      if (item.id != kNoId) {
        ledger_.client[item.id] = item.client;
        ledger_.step[item.id] = index;
      }
    }

    const auto span = tracer_.open("step", index);
    const double t0 = clock_s() + 1e-3;
    const double deadline =
        t0 + kLeadIn + duration + kStepDrain + kStepTimeout;
    std::size_t next = 0;
    double last = clock_s();
    while (true) {
      const double now = clock_s();
      bool idle = true;
      for (; next < items.size() && t0 + items[next].off <= now; ++next) {
        const Item& item = items[next];
        const double due = t0 + item.off;
        const TimePoint stamp(due - item.theta);
        GenConn& conn = dep_.conns[item.client];
        const ClientId id = clients[item.client].id;
        const std::int64_t a = gen_traced_ ? now_ns() : 0;
        std::vector<std::uint8_t> frame =
            item.id == kNoId
                ? net::encode_frame(net::WireMessage(net::Heartbeat{id, stamp}))
                : net::encode_frame(net::WireMessage(net::TimestampedMessage{
                    id, MessageId(item.id), stamp}));
        if (gen_traced_) {
          tracer_.record("net.encode_frame", a, now_ns(), item.id);
        }
        conn.out.insert(conn.out.end(), frame.begin(), frame.end());
        if (item.id != kNoId) {
          ledger_.due[item.id] = due;
          ledger_.stamp[item.id] = stamp.seconds();
          late_[item.id - step.first_id] = (now - due) * 1e3;
          sent_.fetch_add(1, std::memory_order_relaxed);
        }
        idle = false;
      }
      bool blocked = false;
      for (GenConn& conn : dep_.conns) {
        if (conn.out_off < conn.out.size()) {
          idle = false;
          if (!flush(conn)) blocked = true;
        }
      }
      if (blocked) step.write_block_s += now - last;
      for (GenConn& conn : dep_.conns) idle &= !drain(conn);
      last = now;
      if (next == items.size() && !blocked) {
        if (received_[index] == step.end_id - step.first_id) break;
        if (now > deadline) break;
      }
      if (idle) {
        wait_for_input(next < items.size() ? t0 + items[next].off : now + 1e-3);
      }
    }
    tracer_.close(span);
    step.window_latency_ms.resize(static_cast<std::size_t>(windows));
    step.window_late_ms.resize(static_cast<std::size_t>(windows));
    for (int w = 0; w < windows; ++w) {
      const double from = t0 + kLeadIn + duration * w / windows;
      const double to = t0 + kLeadIn + duration * (w + 1) / windows
                        + kLatencyLimitMs * 1e-3;
      step.window_stolen_s.push_back(steal_.stolen_s(from, to));
    }
    for (std::size_t id = step.first_id; id < step.end_id; ++id) {
      const double r = ledger_.receipt[id];
      const double latency = std::isnan(r)
                                 ? std::numeric_limits<double>::infinity()
                                 : (r - ledger_.due[id]) * 1e3;
      step.missing += std::isnan(r) ? 1 : 0;
      step.latency_ms.add(latency);
      step.late_ms.add(late_[id - step.first_id]);
      const auto w = std::min<std::size_t>(
          static_cast<std::size_t>((ledger_.due[id] - t0 - kLeadIn) / duration
                                   * windows),
          static_cast<std::size_t>(windows) - 1);
      step.window_latency_ms[w].add(latency);
      step.window_late_ms[w].add(late_[id - step.first_id]);
    }
    steps_bytes_ += step.bytes();
    return step;
  }

  /// Receipts still outstanding at the end of the run count as failed.
  [[nodiscard]] std::uint64_t never_received() const {
    std::uint64_t n = 0;
    for (double r : ledger_.receipt) n += std::isnan(r) ? 1 : 0;
    return n;
  }
  [[nodiscard]] const Ledger& ledger() const { return ledger_; }
  [[nodiscard]] const std::deque<Received>& batches() const {
    return batches_;
  }
  [[nodiscard]] const std::deque<std::uint64_t>& batch_ids() const {
    return batch_ids_;
  }
  [[nodiscard]] const std::vector<PumpRec>& pumps() const { return pumps_; }
  /// Bytes the generator's own records hold, so heap growth can be
  /// charged to the system alone.
  [[nodiscard]] double harness_bytes() const {
    auto bytes = [](const auto& v) {
      return static_cast<double>(v.capacity() * sizeof(v[0]));
    };
    auto deque_bytes = [](const auto& d) {
      return static_cast<double>(d.size() * sizeof(d[0]));
    };
    return bytes(ledger_.due) + bytes(ledger_.stamp) + bytes(ledger_.receipt)
           + bytes(ledger_.order) + bytes(ledger_.client) + bytes(ledger_.step)
           + deque_bytes(batches_) + deque_bytes(batch_ids_) + bytes(late_)
           + bytes(pumps_) + steps_bytes_;
  }
  [[nodiscard]] std::uint64_t merge_inversions() const {
    return merge_inversions_;
  }
  [[nodiscard]] const PumpTrace& pump_trace() const { return pump_trace_; }
  [[nodiscard]] const Tracer& pump_tracer() const { return pump_tracer_; }
  [[nodiscard]] double traced_pump_busy_s() const { return pump_busy_s_; }
  [[nodiscard]] double traced_pump_wall_s() const { return pump_wall_s_; }

 private:
  /// Sleeps until a connection is readable or `until` (capped at 1 ms),
  /// so the generator leaves the cores to the system while it has
  /// nothing due.
  void wait_for_input(double until) {
    const double wait = std::min(until - clock_s(), 1e-3);
    if (wait < 20e-6) return;
    std::vector<pollfd> fds;
    for (const GenConn& conn : dep_.conns) {
      if (conn.stream) fds.push_back(pollfd{conn.stream->poll_fd(), POLLIN, 0});
    }
    const timespec timeout{0, static_cast<long>(wait * 1e9)};
    (void)::ppoll(fds.data(), fds.size(), &timeout, nullptr);
  }

  /// Writes what the connection's kernel buffer takes. False while bytes
  /// remain queued (the socket is backpressuring the generator).
  bool flush(GenConn& conn) {
    if (!conn.stream) return true;
    while (conn.out_off < conn.out.size()) {
      const std::int64_t a = gen_traced_ ? now_ns() : 0;
      const net::IoResult r = conn.stream->try_write(
          std::span<const std::uint8_t>(conn.out).subspan(conn.out_off));
      if (gen_traced_) tracer_.record("net.try_write", a, now_ns());
      if (r.status != net::IoStatus::kOk) {
        if (r.status == net::IoStatus::kError) {
          result_.fail("client connection write failed");
          conn.stream.reset();
          return true;
        }
        return false;
      }
      conn.out_off += r.bytes;
    }
    conn.out.clear();
    conn.out_off = 0;
    return true;
  }

  /// Reads and handles everything the connection has; true if it read.
  /// Receipts are stamped when each read returns.
  bool drain(GenConn& conn) {
    if (!conn.stream) return false;
    bool any = false;
    while (true) {
      const std::int64_t a = gen_traced_ ? now_ns() : 0;
      const net::IoResult r = conn.stream->try_read(buffer_);
      if (gen_traced_) tracer_.record("net.try_read", a, now_ns());
      if (r.status != net::IoStatus::kOk) break;
      const double received_at = clock_s();
      any = true;
      conn.decoder.append(std::span<const std::uint8_t>(buffer_.data(),
                                                        r.bytes));
      while (auto payload = conn.decoder.next()) {
        const std::int64_t b = gen_traced_ ? now_ns() : 0;
        auto message = net::decode(*payload);
        if (gen_traced_) tracer_.record("net.decode", b, now_ns());
        if (!message) {
          result_.fail("undecodable frame from the server");
          continue;
        }
        handle(conn, std::move(*message), received_at);
      }
    }
    return any;
  }

  void receive(std::uint64_t id, std::int64_t order, double now) {
    if (id >= ledger_.size() || !std::isnan(ledger_.receipt[id])) {
      result_.fail("message " + std::to_string(id) + " released twice");
      return;
    }
    ledger_.receipt[id] = now;
    ledger_.order[id] = order;
    ++received_[ledger_.step[id]];
  }

  void handle(GenConn& conn, net::WireMessage&& message, double now) {
    if (auto* batch = std::get_if<net::BatchEmission>(&message)) {
      if (batch->rank != conn.next_rank) {
        result_.fail("rank gap on a client connection");
      }
      conn.next_rank = batch->rank + 1;
      const std::size_t first = batch_ids_.size();
      for (MessageId id : batch->messages) {
        const std::uint64_t v = id.value();
        if (v < ledger_.size()
            && static_cast<std::int32_t>(ledger_.client[v]) == conn.client) {
          receive(v, static_cast<std::int64_t>(batch->rank), now);
        }
        if (conn.observer) batch_ids_.push_back(v);
      }
      if (conn.observer) {
        batches_.push_back(Received{now, 0, batch->rank, kNaN, kNaN, first,
                                    batch->messages.size()});
      }
    } else if (auto* ordered = std::get_if<net::OrderedBatch>(&message)) {
      const auto position = static_cast<std::int64_t>(batches_.size());
      if (ordered->node >= 2 || ordered->rank != node_rank_[ordered->node]) {
        result_.fail("merged stream: node ranks not dense and increasing");
      } else {
        node_rank_[ordered->node] = ordered->rank + 1;
      }
      const double safe = ordered->safe_time.seconds();
      // Within one release round (the batches between two watermarks) the
      // merge guarantees (safe_time, node, rank) order. Across rounds a
      // node whose buffer was empty did not hold the gate, so a later
      // batch of its can carry an earlier safe_time: that is counted as
      // a merge-tier fairness violation, like the sequencer's own.
      if (!batches_.empty()) {
        const Received& prev = batches_.back();
        if (std::tie(safe, ordered->node, ordered->rank)
            < std::tie(prev.safe_time, prev.node, prev.rank)) {
          if (round_start_ < batches_.size()) {
            result_.fail("merged stream out of (safe_time, node, rank) "
                         "order within a release round");
          } else {
            ++merge_inversions_;
          }
        }
      }
      const std::size_t first = batch_ids_.size();
      for (const auto& entry : ordered->messages) {
        receive(entry.id.value(), position, now);
        batch_ids_.push_back(entry.id.value());
      }
      batches_.push_back(Received{now, ordered->node, ordered->rank, safe,
                                  ordered->emitted_at.seconds(), first,
                                  ordered->messages.size()});
    }
    if (std::holds_alternative<net::MergeWatermark>(message)) {
      round_start_ = batches_.size();
    }
    // HandshakeAck and MergeWatermark frames carry nothing to check.
  }

  void pump_loop() {
    set_fine_timer_slack();
    auto next = std::chrono::steady_clock::now();
    while (!stop_.load(std::memory_order_relaxed)) {
      const bool traced = traced_.load(std::memory_order_relaxed);
      PumpRec rec{clock_s(), 0, {0, 0}};
      const std::int64_t a = now_ns();
      dep_.pump(rec.start, rec, traced ? &pump_trace_ : nullptr);
      const std::int64_t b = now_ns();
      rec.end = clock_s();
      if (traced) {
        pump_tracer_.record(dep_.merged ? "dist.pump_tick" : "net.pump", a, b,
                            pumps_.size());
        pump_busy_s_ += static_cast<double>(b - a) * 1e-9;
        pump_trace_.ingest_lag.add(
            static_cast<double>(sent_.load(std::memory_order_relaxed))
            - static_cast<double>(dep_.totals().submits_in));
      }
      pumps_.push_back(rec);
      next += std::chrono::microseconds(
          static_cast<int>(kPumpInterval * 1e6));
      const auto now = std::chrono::steady_clock::now();
      if (next < now) next = now;
      std::this_thread::sleep_until(next);
      if (traced) pump_wall_s_ += clock_s() - rec.start;
    }
  }

  Deployment& dep_;
  const sim::Population& population_;
  Rng& rng_;
  Result& result_;
  Tracer& tracer_;
  const StealMonitor& steal_;
  bool gen_traced_{false};
  Ledger ledger_;
  std::vector<std::uint8_t> buffer_;
  std::vector<double> late_;  // this step's send lateness, by id offset
  double steps_bytes_{0};
  // Deques: appended while a step runs, and a vector's doubling copy of
  // millions of records would stall the generator for milliseconds.
  std::deque<Received> batches_;
  std::deque<std::uint64_t> batch_ids_;
  std::vector<std::uint64_t> received_;
  std::uint64_t node_rank_[2] = {0, 0};
  std::size_t round_start_{0};  // first batch of the current release round
  std::uint64_t merge_inversions_{0};
  std::atomic<std::uint64_t> sent_{0};
  // Pump-thread state; read by the generator only after stop_pump().
  std::thread pump_thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> traced_{false};
  std::vector<PumpRec> pumps_;
  PumpTrace pump_trace_;
  Tracer pump_tracer_{true};
  double pump_busy_s_{0};
  double pump_wall_s_{0};
};

/// The steps `indices` as one: samples and windows pooled.
StepResult combine(const std::vector<StepResult>& steps,
                   const std::vector<std::size_t>& indices) {
  StepResult all;
  for (std::size_t i : indices) {
    const StepResult& s = steps[i];
    all.rate = s.rate;
    all.latency_ms.append(s.latency_ms);
    all.late_ms.append(s.late_ms);
    all.window_latency_ms.insert(all.window_latency_ms.end(),
                                 s.window_latency_ms.begin(),
                                 s.window_latency_ms.end());
    all.window_late_ms.insert(all.window_late_ms.end(),
                              s.window_late_ms.begin(), s.window_late_ms.end());
    all.window_stolen_s.insert(all.window_stolen_s.end(),
                               s.window_stolen_s.begin(),
                               s.window_stolen_s.end());
    all.missing += s.missing;
    all.write_block_s += s.write_block_s;
  }
  return all;
}

/// Where each step's messages stand after the run: latency split and
/// checks that need the whole stream.
struct Split {
  Samples hold_ms, gate_ms, egress_ms, downlink_ms, release_ms;
  Samples batch_msgs;
};

template <typename MakeDeployment>
Result run_ladder(const char* name, const RunOptions& options,
                  const sim::Population& population, MakeDeployment make) {
  Result result;
  Tracer tracer(options.trace);
  Rng rng(options.seed);
  const double start = clock_s();

  // Set-up, several times; the last deployment is the one measured.
  std::vector<double> setups;
  Samples connect_ms;
  std::unique_ptr<Deployment> dep;
  for (int k = 0; k < kSetups; ++k) {
    dep.reset();
    const double t0 = clock_s();
    dep = make(population, options.work_dir, connect_ms);
    bool up = dep->conns.size() >= dep->clients && dep->clients > 0;
    for (const GenConn& c : dep->conns) up &= c.stream != nullptr;
    if (!up) {
      result.fail(std::string(name) + ": listen or dial failed");
      result.attempted = 1;
      result.failed = 1;
      return result;
    }
    // Set-up ends when every client's first frame after its announcement
    // (a heartbeat) has been accepted.
    for (std::uint32_t c = 0; c < dep->clients; ++c) {
      const auto frame = net::encode_frame(net::WireMessage(net::Heartbeat{
          population.clients()[c].id,
          TimePoint(clock_s() - population.clients()[c].offset->mean())}));
      if (!dep->conns[c].stream->write_all(frame)) {
        result.fail(std::string(name) + ": handshake write failed");
      }
    }
    while (dep->totals().heartbeats_in < dep->clients
           && clock_s() - t0 < 10.0) {
      std::this_thread::yield();
    }
    setups.push_back(clock_s() - t0);
    if (dep->totals().heartbeats_in < dep->clients) {
      result.fail(std::string(name) + ": server never accepted a frame");
      result.attempted = 1;
      result.failed = 1;
      return result;
    }
  }

  set_fine_timer_slack();
  StealMonitor steal;
  steal.start();
  Ladder ladder(*dep, population, rng, result, tracer, steal);
  const double heap_setup = heap_mb();
  const double harness_setup = ladder.harness_bytes();
  ladder.start_pump();
  std::uint16_t step_index = 0;
  std::vector<StepResult> steps;
  auto step = [&](double rate, double duration, int windows) {
    steps.push_back(ladder.run_step(rate, duration, windows, step_index++));
    const StepResult& s = steps.back();
    result.detail(
        std::string(name) + " step " + std::to_string(steps.size() - 1)
        + ": rate=" + fmt(s.rate, 0)
        + " msgs=" + std::to_string(s.end_id - s.first_id)
        + " p50_ms=" + fmt(s.latency_ms.quantile(0.5), 4)
        + " window_median_p99_ms="
        + fmt(s.p99_ms(), 4)
        + " p99_ms=" + fmt(s.latency_ms.quantile(0.99), 4)
        + " late_p99_ms=" + fmt(s.late_ms.quantile(0.99), 4)
        + " stolen_windows=" + std::to_string(s.stolen_windows()) + "/"
        + std::to_string(s.window_stolen_s.size())
        + " missing=" + std::to_string(s.missing)
        + " ok=" + (s.ok() ? "1" : "0"));
    return s.ok();
  };

  // Budget, as shares of the run: 20% for each fixed load, the rest for
  // the search. The fixed loads run in kRounds short rounds spread over
  // the whole run, one before each search probe: the host's speed drifts
  // over seconds, and the median of the window p99s is steady only when
  // its windows sample that drift across the run. A traced run measures
  // the rounds untraced and then traced instead of searching.
  const double low_s = options.seconds * (options.trace ? 0.1 : 0.2);
  const double high_s = options.seconds * (options.trace ? 0.1 : 0.2);
  std::vector<std::size_t> fixed_steps[2];
  std::vector<std::size_t> traced_steps[2];
  // Heartbeats until every message sent so far is released, so a failed
  // probe's backlog does not spill into the next round.
  auto settle = [&] {
    const double until = clock_s() + kStepTimeout;
    while (ladder.never_received() > 0 && clock_s() < until) {
      steps.push_back(ladder.run_step(0, kStepDrain, 1, step_index++));
    }
  };
  // Every round has a high step; every other round also a low step,
  // twice as long, so each low window holds ~1,000 messages (ten beyond
  // its p99) while the high load samples twice as many moments.
  int round_index = 0;
  auto round = [&](std::vector<std::size_t> (&out)[2]) {
    settle();
    if (round_index++ % 2 == 0) {
      step(kLowRate, 2 * low_s / kRounds, 1);
      out[0].push_back(steps.size() - 1);
    }
    step(kHighRate, high_s / kRounds, 4);
    out[1].push_back(steps.size() - 1);
  };
  int rounds_left = kRounds;
  auto next_round = [&] {
    if (rounds_left > 0) {
      round(fixed_steps);
      --rounds_left;
    }
  };
  double sustained = 0;
  std::vector<std::pair<double, Probe>> probes;
  if (!options.trace) {
    for (int r = 0; r < kRounds / 4; ++r) next_round();
    const double probe_s = options.seconds * 0.05;
    // The search starts at the grid step nearest the high load, which
    // the fixed rounds have just run.
    const int start = static_cast<int>(std::lround(
        std::log(kHighRate / kGridFloor) / std::log(kGridRatio)));
    sustained = sustained_rate(
        kGridFloor, kGridRatio, kGridSteps, start,
        [&](double rate) {
          // A failing probe is repeated once: one host hiccup must not
          // end the search, while a rate past capacity fails both times.
          next_round();
          settle();
          if (step(rate, probe_s, 5)) return Probe{true, steps.back().p99_ms()};
          next_round();
          settle();
          const bool ok = step(rate, probe_s, 5);
          return Probe{ok, steps.back().p99_ms()};
        },
        &probes);
  }
  while (rounds_left > 0) next_round();
  const double heap_growth_mb =
      heap_mb() - heap_setup - (ladder.harness_bytes() - harness_setup) / kMiB;
  if (options.trace) {
    ladder.set_traced(true);
    for (int r = 0; r < kRounds; ++r) round(traced_steps);
    ladder.set_traced(false);
  }
  // A heartbeat-only tail lets the last messages clear the gate.
  (void)ladder.run_step(0, 0.02, 1, step_index++);
  ladder.stop_pump();
  steal.stop();
  const double run_s = clock_s() - start;

  // ── Checks over the whole received stream ────────────────────────────
  const Ledger& ledger = ladder.ledger();
  const std::uint64_t messages = ledger.size();
  result.attempted = messages;
  result.failed += ladder.never_received();
  if (ladder.never_received() > 0) {
    result.fail(std::string(name) + ": "
                + std::to_string(ladder.never_received())
                + " messages never released");
  }
  const auto& batches = ladder.batches();
  const auto& ids = ladder.batch_ids();
  // Pump start / end of the tick that emitted each (node, rank).
  std::vector<std::vector<std::pair<double, double>>> emitted_by(2);
  for (const PumpRec& p : ladder.pumps()) {
    for (int n = 0; n < 2; ++n) {
      for (std::uint32_t k = 0; k < p.emitted[n]; ++k) {
        emitted_by[n].emplace_back(p.start, p.end);
      }
    }
  }
  Split split[2];  // per fixed load (0 low, 1 high), traced steps if traced
  const std::vector<std::size_t>(&scored)[2] =
      options.trace ? traced_steps : fixed_steps;
  // Which load (0 low, 1 high) each scored step measures; -1 otherwise.
  std::vector<int> load_of_step(steps.size() + 1, -1);
  for (int f = 0; f < 2; ++f) {
    for (std::size_t i : scored[f]) load_of_step[i] = f;
  }
  auto load_of = [&](std::uint64_t id) {
    return load_of_step[ledger.step[id]];
  };
  std::vector<Samples> step_batches(steps.size() + 1);
  std::uint64_t early = 0;
  std::uint64_t off_clock = 0;
  for (const Received& b : batches) {
    double t_b = b.safe_time;
    if (!dep->merged) {
      t_b = -std::numeric_limits<double>::infinity();
      for (std::size_t i = b.first; i < b.first + b.count; ++i) {
        const std::uint64_t id = ids[i];
        if (id >= messages) continue;
        const core::Message m{MessageId(id),
                              population.clients()[ledger.client[id]].id,
                              TimePoint(ledger.stamp[id]), TimePoint(0.0)};
        t_b = std::max(t_b, dep->safe_time(m));
      }
    }
    if (b.receipt < t_b) ++early;
    // The merged stream carries each batch's emission instant: it must
    // fall between T_b and the consumer's receipt on the run's clock,
    // which a shard pumping on another clock domain cannot meet.
    if (dep->merged && !(t_b <= b.emitted_at && b.emitted_at <= b.receipt)) {
      ++off_clock;
    }
    const auto& pumps_of = emitted_by[b.node];
    const bool known = b.rank < pumps_of.size();
    for (std::size_t i = b.first; i < b.first + b.count; ++i) {
      const std::uint64_t id = ids[i];
      if (id >= messages) continue;
      if (const int f = load_of(id); f >= 0) {
        Split& s = split[f];
        s.hold_ms.add((t_b - ledger.due[id]) * 1e3);
        if (known) {
          s.gate_ms.add((pumps_of[b.rank].first - t_b) * 1e3);
          s.egress_ms.add((ledger.receipt[id] - pumps_of[b.rank].second) * 1e3);
        }
        if (dep->merged) {
          s.downlink_ms.add((b.receipt - b.emitted_at) * 1e3);
        }
      }
    }
    if (b.count > 0 && ids[b.first] < messages) {
      const auto st = ledger.step[ids[b.first]];
      step_batches[st].add(static_cast<double>(b.count));
      if (load_of_step[st] >= 0) {
        split[load_of_step[st]].batch_msgs.add(static_cast<double>(b.count));
      }
    }
  }
  if (early > 0) {
    result.fail(std::string(name) + ": " + std::to_string(early)
                + " batches received before their T_b on the shared clock");
  }
  if (off_clock > 0) {
    result.fail(std::string(name) + ": " + std::to_string(off_clock)
                + " batches emitted outside [T_b, receipt] on the shared "
                  "clock (mixed clock domains)");
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    result.detail(std::string(name) + " step " + std::to_string(i)
                  + " batches: count=" + std::to_string(step_batches[i].count())
                  + " mean=" + fmt(step_batches[i].mean(), 2)
                  + " max=" + fmt(step_batches[i].max(), 0));
  }
  const StepResult load[2] = {combine(steps, scored[0]),
                              combine(steps, scored[1])};
  // Fairness over the two fixed loads, in received order.
  double ras[2] = {0, 0};
  for (int f = 0; f < 2; ++f) {
    std::vector<metrics::RankedMessage> ranked;
    for (std::size_t i : scored[f]) {
      for (std::size_t id = steps[i].first_id; id < steps[i].end_id; ++id) {
        if (ledger.order[id] < 0) continue;
        ranked.push_back(metrics::RankedMessage{
            MessageId(id), population.clients()[ledger.client[id]].id,
            TimePoint(ledger.due[id]), static_cast<Rank>(ledger.order[id])});
      }
    }
    ras[f] = metrics::rank_agreement(ranked).normalized();
    result.detail(std::string(name) + (f ? " high" : " low") + ": batches="
                  + std::to_string(split[f].batch_msgs.count())
                  + " batch_mean=" + fmt(split[f].batch_msgs.mean(), 2)
                  + " batch_max=" + fmt(split[f].batch_msgs.max(), 0)
                  + " hold_p50_ms=" + fmt(split[f].hold_ms.quantile(0.5), 4)
                  + " gate_p50_ms=" + fmt(split[f].gate_ms.quantile(0.5), 4)
                  + " samples=" + std::to_string(load[f].latency_ms.count())
                  + " beyond_p99=" + std::to_string(
                        load[f].latency_ms.beyond(0.99))
                  + " windows=" + std::to_string(
                        load[f].window_latency_ms.size())
                  + " stolen_windows=" + std::to_string(
                        load[f].stolen_windows())
                  + " pooled_p99_ms=" + fmt(load[f].latency_ms.quantile(0.99), 4)
                  + " window_median_p99_ms=" + fmt(load[f].p99_ms(), 4)
                  + " ras=" + fmt(ras[f], 4));
  }
  for (const auto& [rate, probe] : probes) {
    result.detail(std::string(name) + " probe rate=" + fmt(rate, 0)
                  + " p99_ms=" + fmt(probe.p99_ms, 4)
                  + " ok=" + (probe.ok ? "1" : "0"));
  }
  if (dep->merged) {
    result.detail(std::string(name) + ": merged-stream safe_time inversions "
                  "across release rounds = "
                  + std::to_string(ladder.merge_inversions()) + " of "
                  + std::to_string(batches.size()) + " batches");
    if (static_cast<double>(ladder.merge_inversions())
        > kMaxMergeInversionFrac * static_cast<double>(batches.size())) {
      result.fail(std::string(name) + ": merged-stream safe_time inversions "
                  "across release rounds exceed "
                  + fmt(kMaxMergeInversionFrac * 100, 1) + "% of batches");
    }
  }
  result.repetitions = 1;
  const StepResult& low = load[0];
  const StepResult& high = load[1];
  Samples hold = split[0].hold_ms;
  hold.append(split[1].hold_ms);

  if (!options.trace) {
    result.set_median("setup_s", setups, "s");
    result.set("throughput_msgs_per_s", sustained, "1/s");
    result.set("release_p50_ms.low", low.latency_ms.quantile(0.5), "ms");
    result.set("release_p99_ms.low", low.p99_ms(), "ms");
    result.set("release_p50_ms.high", high.latency_ms.quantile(0.5), "ms");
    result.set("release_p99_ms.high", high.p99_ms(), "ms");
    result.set("hold_p50_ms", hold.quantile(0.5), "ms");
    result.set("hold_p99_ms", hold.quantile(0.99), "ms");
    result.set("fairness_ras", 0.5 * (ras[0] + ras[1]), "ratio");
    result.detail(std::string(name) + ": run_s=" + fmt(run_s, 2));
    return result;
  }

  // ── Per-layer metrics (traced steps) ─────────────────────────────────
  const PumpTrace& pt = ladder.pump_trace();
  const net::FrontendTotals totals = dep->totals();
  const double msgs = static_cast<double>(std::max<std::uint64_t>(1, messages));
  result.set("net.pump_ns.p50", pt.pump_ns.quantile(0.5), "ns");
  result.set("net.pump_ns.p99", pt.pump_ns.quantile(0.99), "ns");
  result.set("net.pump_busy_frac",
             ladder.traced_pump_wall_s() > 0
                 ? ladder.traced_pump_busy_s() / ladder.traced_pump_wall_s()
                 : 0,
             "ratio");
  // Every pump is one service poll per node: a poll is useful when it
  // emitted at least one batch.
  Samples pump_batches;
  double polls = 0;
  double useful_polls = 0;
  const int nodes = dep->merged ? 2 : 1;
  for (const PumpRec& p : ladder.pumps()) {
    if (p.emitted[0] + p.emitted[1] > 0) {
      pump_batches.add(static_cast<double>(p.emitted[0] + p.emitted[1]));
    }
    for (int n = 0; n < nodes; ++n) {
      polls += 1;
      useful_polls += p.emitted[n] > 0 ? 1 : 0;
    }
  }
  result.set("net.pump_batches.mean", pump_batches.mean(), "batches");
  result.set("core.poll_useful_ratio", polls > 0 ? useful_polls / polls : 0,
             "ratio");
  result.set("net.ingest_lag_msgs.p99", pt.ingest_lag.quantile(0.99), "msgs");
  result.set("net.write_block_ms",
             (low.write_block_s + high.write_block_s) * 1e3, "ms");
  result.set("net.bytes_out_per_msg",
             static_cast<double>(totals.bytes_out) / msgs, "B/msg");
  result.set("net.frames_out_per_msg",
             static_cast<double>(totals.frames_out) / msgs, "frames/msg");
  Samples egress = split[0].egress_ms;
  egress.append(split[1].egress_ms);
  result.set("net.egress_ms.p50", egress.quantile(0.5), "ms");
  result.set("net.egress_ms.p99", egress.quantile(0.99), "ms");
  result.set("net.frames_dropped", static_cast<double>(totals.frames_dropped),
             "frames");
  result.set("net.connect_ms", connect_ms.quantile(0.5), "ms");
  Samples gate = split[0].gate_ms;
  gate.append(split[1].gate_ms);
  result.set("split.hold_ms.p50", hold.quantile(0.5), "ms");
  result.set("split.hold_ms.p99", hold.quantile(0.99), "ms");
  result.set("split.gate_ms.p50", gate.quantile(0.5), "ms");
  result.set("split.gate_ms.p99", gate.quantile(0.99), "ms");
  result.set("dist.shard_pump_ns.p50", pt.shard_pump_ns.quantile(0.5), "ns");
  result.set("dist.shard_pump_ns.p99", pt.shard_pump_ns.quantile(0.99), "ns");
  result.set("dist.merge_release_ns.p50", pt.merge_release_ns.quantile(0.5),
             "ns");
  result.set("dist.merge_release_ns.p99", pt.merge_release_ns.quantile(0.99),
             "ns");
  result.set("dist.merge_gate_lag_ms.p99", pt.gate_lag_ms.quantile(0.99), "ms");
  Samples downlink = split[0].downlink_ms;
  downlink.append(split[1].downlink_ms);
  result.set("dist.downlink_ms.p50", downlink.quantile(0.5), "ms");
  result.set("dist.downlink_ms.p99", downlink.quantile(0.99), "ms");
  result.set("dist.merge_held.max", pt.held.max(), "batches");
  result.set("dist.merge_inversions_per_M",
             static_cast<double>(ladder.merge_inversions()) * 1e6 / msgs,
             "1/M");
  dep->finish(result, messages);
  Samples batch_msgs = split[0].batch_msgs;
  batch_msgs.append(split[1].batch_msgs);
  result.set("core.batch_msgs.mean", batch_msgs.mean(), "msgs");
  result.set("core.batch_msgs.max", batch_msgs.max(), "msgs");
  Samples late = low.late_ms;
  late.append(high.late_ms);
  result.set("gen.late_ms.p99", late.quantile(0.99), "ms");
  result.set("gen.late_ms.max", late.max(), "ms");
  result.set("failed_frac", static_cast<double>(result.failed) / msgs, "ratio");
  result.set("mem.heap_growth_mb", heap_growth_mb, "MB");
  result.set("violations_per_M",
             static_cast<double>(dep->violations()) * 1e6 / msgs, "1/M");
  measure_prefill(population, core::OnlineConfig{}, result, tracer);
  const double untraced_p50 =
      combine(steps, fixed_steps[1]).latency_ms.quantile(0.5);
  const double traced_p50 = high.latency_ms.quantile(0.5);
  result.set("trace.overhead_frac",
             untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0, "ratio");

  std::vector<Span> spans = tracer.spans();
  const auto offset = static_cast<std::int32_t>(spans.size());
  for (Span s : ladder.pump_tracer().spans()) {
    if (s.parent >= 0) s.parent += offset;
    spans.push_back(s);
  }
  for (const auto& [span, ns] : self_time_ns(spans)) {
    result.detail("self_time " + span + " = " + fmt(ns * 1e-6, 3) + " ms");
  }
  result.detail("generator " + span_summary(tracer));
  result.detail("pump " + span_summary(ladder.pump_tracer()));
  if (!options.work_dir.empty()) {
    write_spans(options.work_dir + "/" + name + ".spans.jsonl", spans);
  }
  return result;
}

/// The deployment's clients: Gaussian clocks at microsecond scale, fixed
/// per workload (the seed draws only the traffic).
sim::Population wire_population(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return sim::gaussian_population(n, kClockScale, rng);
}

}  // namespace

Result run_wire_ladder(const RunOptions& options) {
  const sim::Population population = wire_population(4, 0x3141'5926ULL);
  return run_ladder("wire_ladder", options, population,
                    [](const sim::Population& p, const std::string& dir,
                       Samples& connect_ms) -> std::unique_ptr<Deployment> {
                      return std::make_unique<WireDeployment>(p, dir,
                                                              connect_ms);
                    });
}

Result run_merge_topology(const RunOptions& options) {
  const sim::Population population = wire_population(3, 0x2718'2818ULL);
  return run_ladder("merge_topology", options, population,
                    [](const sim::Population& p, const std::string& dir,
                       Samples& connect_ms) -> std::unique_ptr<Deployment> {
                      return std::make_unique<MergeDeployment>(p, dir,
                                                               connect_ms);
                    });
}

}  // namespace pb
