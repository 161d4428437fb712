// service.hpp — mpch-serve's job execution engine.
//
// A ServeService takes a batch of parsed JobSpecs and executes them on a
// fixed-size pool of worker threads fed by a bounded queue (backpressure:
// submission blocks when workers fall behind). Jobs share nothing but the
// pool: every job builds its own scenario, simulation and LazyRandomOracle
// (whose memo is the only one), so a job's transcript, touched table and
// query counts are what a standalone run produces by construction.
//
// Budget admission: before a job runs, its strategy's declared ProtocolSpec
// is checked against the job's memory budget with the existing static
// checker. A job that cannot fit is rejected with full diagnostic
// provenance (and a distinct exit code at the CLI) before a single round
// executes.
//
// The cornerstone invariant, proven by serve_conformance_test: every
// JobResult is bit-identical to running the same JobSpec standalone
// (run_standalone), for every worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/static_checker.hpp"
#include "fault/recovery.hpp"
#include "hash/random_oracle.hpp"
#include "mpc/simulation.hpp"
#include "serve/job_spec.hpp"
#include "serve/scenario.hpp"

namespace mpch::serve {

enum class JobStatus : std::uint8_t {
  kOk,        ///< ran to completion, all verifications passed
  kRejected,  ///< refused at admission (budget/spec), never executed
  kFailed,    ///< executed but errored, diverged, or failed verification
};

const char* job_status_name(JobStatus status);

struct JobResult {
  std::uint64_t job_id = 0;
  JobSpec spec;
  JobStatus status = JobStatus::kFailed;
  std::string error;  ///< why rejected/failed; empty for kOk

  /// Static admission report (populated whenever the strategy declares a
  /// ProtocolSpec; violations non-empty exactly for kRejected).
  analysis::AnalysisReport admission;
  /// verify-verb only: declared-spec-vs-observed-peaks report.
  analysis::AnalysisReport soundness;

  mpc::MpcRunResult run;  ///< valid when the job executed (status != kRejected)
  std::shared_ptr<hash::LazyRandomOracle> oracle;  ///< null for plain-model jobs

  // chaos-verb artifacts.
  fault::RecoveryCost cost;
  std::vector<std::string> fault_log;
  std::vector<std::string> mismatches;  ///< recovered-vs-reference differences

  double wall_ms = 0;
  std::uint64_t worker = 0;  ///< pool index that executed the job
};

struct ServeOptions {
  std::uint64_t workers = 1;
  std::size_t queue_depth = 64;
};

/// Campaign-level accounting, filled by run_jobs.
struct ServeStats {
  double wall_ms = 0;
  double runs_per_sec = 0;  ///< executed jobs (ok+failed) per wall second
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  /// Always 0: jobs share no oracle memo, so there is nothing to hit. Kept
  /// for callers that report a hit fraction (it reads 0).
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t backpressure_waits = 0;
  std::uint64_t queue_high_watermark = 0;
};

class ServeService {
 public:
  explicit ServeService(ServeOptions options = {});

  /// Execute every job on the worker pool. Returns one JobResult per job, in
  /// jobfile order; result *content* is independent of workers/queue_depth
  /// (only wall_ms and the worker index vary).
  std::vector<JobResult> run_jobs(const std::vector<JobSpec>& jobs);

  const ServeStats& stats() const { return stats_; }

  /// Execute one job on the current thread. Every pool worker runs exactly
  /// this per job; serve_conformance_test uses it as the standalone
  /// reference that pool results are compared against.
  static JobResult run_standalone(const JobSpec& spec, std::uint64_t job_id = 0);

 private:
  ServeOptions options_;
  ServeStats stats_;
};

}  // namespace mpch::serve
