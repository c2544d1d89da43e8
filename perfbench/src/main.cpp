// fairbench: the fair-ordering benchmark program.
//
//   fairbench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR]
//
// Prints detail lines, one provenance line, and as its last line one
// JSON object {correct, attempted, failed, metrics}. With --trace 0 the
// metrics are the end-to-end metrics; with --trace 1 the per-layer ones.
// Exits non-zero without a result line on bad arguments or when the
// build may not produce tracked numbers.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE ""
#endif
#ifndef PB_CXX_FLAGS
#define PB_CXX_FLAGS ""
#endif

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every workload reports all of these (BENCHMARK.json "end_to_end").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_msgs_per_s", "1/s"},
    {"release_p50_ms.low", "ms"},
    {"release_p99_ms.low", "ms"},
    {"release_p50_ms.high", "ms"},
    {"release_p99_ms.high", "ms"},
    {"hold_p50_ms", "ms"},
    {"hold_p99_ms", "ms"},
    {"fairness_ras", "ratio"},
};

/// BENCHMARK.json "per_layer"; a layer a workload does not exercise
/// reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"core.submit_ns.p50", "ns"},
    {"core.submit_ns.p99", "ns"},
    {"core.submit_ns.p999", "ns"},
    {"core.heartbeat_ns.p50", "ns"},
    {"core.heartbeat_ns.p99", "ns"},
    {"core.poll_ns.p50", "ns"},
    {"core.poll_ns.p99", "ns"},
    {"core.poll_ns.p999", "ns"},
    {"core.busy_frac", "ratio"},
    {"core.poll_useful_ratio", "ratio"},
    {"core.batch_msgs.mean", "msgs"},
    {"core.batch_msgs.max", "msgs"},
    {"core.pending.max", "msgs"},
    {"stats.prefill_s", "s"},
    {"stats.ms_per_pair", "ms"},
    {"net.pump_ns.p50", "ns"},
    {"net.pump_ns.p99", "ns"},
    {"net.pump_busy_frac", "ratio"},
    {"net.pump_batches.mean", "batches"},
    {"net.ingest_lag_msgs.p99", "msgs"},
    {"net.write_block_ms", "ms"},
    {"net.bytes_out_per_msg", "B/msg"},
    {"net.frames_out_per_msg", "frames/msg"},
    {"net.egress_ms.p50", "ms"},
    {"net.egress_ms.p99", "ms"},
    {"net.frames_dropped", "frames"},
    {"net.connect_ms", "ms"},
    {"split.hold_ms.p50", "ms"},
    {"split.hold_ms.p99", "ms"},
    {"split.gate_ms.p50", "ms"},
    {"split.gate_ms.p99", "ms"},
    {"dist.shard_pump_ns.p50", "ns"},
    {"dist.shard_pump_ns.p99", "ns"},
    {"dist.merge_release_ns.p50", "ns"},
    {"dist.merge_release_ns.p99", "ns"},
    {"dist.merge_gate_lag_ms.p99", "ms"},
    {"dist.downlink_ms.p50", "ms"},
    {"dist.downlink_ms.p99", "ms"},
    {"dist.uplink_frames_per_msg", "frames/msg"},
    {"dist.merge_held.max", "batches"},
    {"dist.retained_frames", "frames"},
    {"dist.merge_inversions_per_M", "1/M"},
    {"gen.late_ms.p99", "ms"},
    {"gen.late_ms.max", "ms"},
    {"mem.heap_growth_mb", "MB"},
    {"violations_per_M", "1/M"},
    {"failed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/// Holds the result to exactly the listed metrics: a listed metric the
/// workload did not set reads 0 (the layer was not exercised); one it set
/// that is not listed is an error in the benchmark.
template <std::size_t N>
void conform(pb::Result& result, const MetricSpec (&specs)[N]) {
  std::map<std::string, pb::Metric> out;
  std::string unexercised;
  for (const MetricSpec& spec : specs) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      out[spec.name] = pb::Metric{0.0, spec.unit};
      unexercised += std::string(unexercised.empty() ? "" : " ") + spec.name;
      continue;
    }
    if (it->second.unit != spec.unit) {
      result.fail(std::string("metric ") + spec.name + " has unit "
                  + it->second.unit + ", expected " + spec.unit);
    }
    out[spec.name] = it->second;
    result.metrics.erase(it);
  }
  for (const auto& [name, metric] : result.metrics) {
    result.fail("unlisted metric " + name);
  }
  if (!unexercised.empty()) result.detail("not exercised: " + unexercised);
  result.metrics = std::move(out);
}

/// The rule scripts/bench_throughput_json.sh applies to tracked output:
/// Release only, and never an instrumented (sanitizer or coverage) tree.
const char* build_refusal() {
  if (std::strcmp(PB_BUILD_TYPE, "Release") != 0) {
    return "not a Release build";
  }
  const std::string flags = PB_CXX_FLAGS;
  for (const char* bad : {"-fsanitize", "-fprofile", "--coverage"}) {
    if (flags.find(bad) != std::string::npos) return "instrumented build";
  }
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: fairbench --workload auction_burst|learned_clocks|"
               "wire_ladder|merge_topology --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunOptions options;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--workdir") {
      options.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_trace || !(options.seconds > 0)) return usage();
  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "fairbench: refusing to report from this build (%s; "
                 "build type '%s', flags '%s')\n", why, PB_BUILD_TYPE,
                 PB_CXX_FLAGS);
    return 3;
  }

  pb::Result result;
  if (options.workload == "auction_burst") {
    result = pb::run_auction_burst(options);
  } else if (options.workload == "learned_clocks") {
    result = pb::run_learned_clocks(options);
  } else if (options.workload == "wire_ladder") {
    result = pb::run_wire_ladder(options);
  } else if (options.workload == "merge_topology") {
    result = pb::run_merge_topology(options);
  } else {
    return usage();
  }

  if (options.trace) {
    conform(result, kPerLayer);
  } else {
    conform(result, kEndToEnd);
  }
  for (const std::string& line : result.details) {
    std::printf("# %s\n", line.c_str());
  }
  for (const std::string& line : result.errors) {
    std::printf("# CHECK FAILED: %s\n", line.c_str());
  }
  std::string spreads;
  for (const auto& [name, s] : result.spreads) {
    spreads += (spreads.empty() ? "" : ", ") + pb::json_string(name)
               + ": {\"n\": " + std::to_string(s.n) + ", \"rel_iqr\": "
               + pb::fmt(s.rel_iqr, 4) + "}";
  }
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": %s, \"compiler\": %s, "
      "\"commit\": %s, \"repetitions\": %zu, \"spread\": {%s}}}\n",
      pb::json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, std::thread::hardware_concurrency(),
      pb::json_string(PB_BUILD_TYPE).c_str(),
      pb::json_string(std::string("gcc ") + __VERSION__).c_str(),
      pb::json_string(std::getenv("PB_COMMIT") ? std::getenv("PB_COMMIT")
                                                : "unknown")
          .c_str(),
      result.repetitions, spreads.c_str());
  std::printf("%s\n", pb::result_json(result).c_str());
  return 0;
}
