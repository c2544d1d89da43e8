// The benchmark's workloads. Each builds its inputs from the seed before
// timing, drives the library from outside, checks the outputs, and fills
// a Result with the end-to-end metrics (untraced) or the per-layer
// metrics (traced). See ../README.md for what each one stresses.
#pragma once

#include "core/online_sequencer.hpp"
#include "harness_util.hpp"
#include "sim/population.hpp"

namespace pb {

/// stats: primes a side engine over the workload's registry with every
/// client pair filled eagerly (`prime(threshold, p_safe, true)`), the
/// cost the service's lazy path spreads over submits and polls; sets
/// stats.prefill_s and stats.ms_per_pair.
void measure_prefill(const tommy::sim::Population& population,
                     const tommy::core::OnlineConfig& online, Result& result,
                     Tracer& tracer);

/// In-process, modeled clock: the paper's auction burst, ~512 Gaussian
/// clients, core closure + heartbeats + polls.
[[nodiscard]] Result run_auction_burst(const RunOptions& options);
/// In-process, modeled clock: 64 Gumbel/bimodal clients, the numeric
/// (stats) path with lazy pair fills.
[[nodiscard]] Result run_learned_clocks(const RunOptions& options);
/// One FrameServer on a Unix socket, 4 client connections, open-loop
/// Poisson ladder on the shared wall clock.
[[nodiscard]] Result run_wire_ladder(const RunOptions& options);
/// Two ShardNodes + one MergeNode, 3 client connections plus the
/// consumer's downlink, same generator and ladder.
[[nodiscard]] Result run_merge_topology(const RunOptions& options);

}  // namespace pb
