// workloads.hpp — the three workloads of mpch-bench (see ../README.md for
// why each one exists and which layers it stresses).
//
// Each entry point sets up its inputs from Options::seed (repeated, median
// reported as setup_s), measures for Options::seconds, checks every output
// outside the timed region, and returns the end-to-end metrics — or, with
// Options::trace, the per-layer metrics of a traced pass over the same
// inputs, whose artifacts must be bit-identical to the untraced pass.
//
// No workload sets MpcConfig::threads, the shared-memory transport, or
// ServeOptions::share_memo / reuse_buffers: every run uses the shipped
// defaults, so changing or deleting those knobs is measured, not bypassed.
#pragma once

#include "measure.hpp"

namespace mpch::bench {

Outcome run_chains(const Options& options);
Outcome run_campaign(const Options& options);
Outcome run_wire_recovery(const Options& options);

/// Setup repetitions behind setup_s (1 at smoke-test sizes).
inline int setup_repeats(const Options& options) { return options.tiny ? 1 : 3; }

/// Runs before a loop may stop: eleven latency samples give a tail
/// percentile with ten samples beyond it.
inline constexpr std::size_t kMinRuns = 11;

}  // namespace mpch::bench
