// The four workloads and the per-layer probes of traced runs.
//
// Every workload drives a public entry point at its default
// configuration, checks each output with checks.hpp, and fills a
// RunResult.  In a traced run (Args::trace) the same loop runs with spans
// on, its end-to-end figures go to stderr only, and run_layer_probes adds
// the per-layer metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/plan.hpp"
#include "rt/tcp_transport.hpp"

namespace perfbench {

RunResult run_refactor(const Args& args);
RunResult run_analyze(const Args& args);
RunResult run_serve(const Args& args);
RunResult run_dist(const Args& args);

/// Per-layer metrics of a traced run (same set on every workload).
void run_layer_probes(const Args& args, RunResult& out);

// ---- inputs shared by the workloads and the probes ------------------------

/// Edge of the refactor-3d grid: the 7-point pattern on kGrid³ points.
inline constexpr index_t kGrid = 14;
CscMatrix refactor_pattern();

struct NamedMatrix {
  std::string name;
  CscMatrix lower;
};

/// One round of analyze-cold: the paper's five stand-ins plus seeded
/// members of the gen families, every pattern distinct.
std::vector<NamedMatrix> analyze_round(std::uint64_t seed);

/// The paper's five stand-ins (dist-mesh's matrix set).
std::vector<NamedMatrix> stand_ins();

// ---- the distributed mesh --------------------------------------------------

/// spf_rank's defaults: MMD, block mapping, grain 8, minimum cluster
/// width 4, one worker thread per rank.
inline constexpr index_t kRanks = 4;
inline constexpr index_t kRankGrain = 8;
inline constexpr index_t kRankWidth = 4;

struct DistPassStats {
  double seconds = 0.0;           ///< summed factorization wall time
  std::vector<double> factor_ms;  ///< wall time of each factorization
  count_t volume = 0;             ///< values delivered between ranks
  count_t messages = 0;           ///< data messages delivered
  count_t bytes = 0;              ///< wire bytes delivered
  count_t blocked_sends = 0;
  double wall_max_over_mean = 0;  ///< summed over matrices
  std::int64_t factorizations = 0;
};

/// kRanks rank threads in this process, each owning a TcpTransport on an
/// ephemeral loopback port, factorizing the stand-ins with rt.
class DistMesh {
 public:
  explicit DistMesh(std::uint64_t seed);
  ~DistMesh();
  DistMesh(const DistMesh&) = delete;
  DistMesh& operator=(const DistMesh&) = delete;

  /// Factor every matrix of the set once, checking each result into `r`.
  DistPassStats pass(RunResult& r);
  /// One-thread blocked shared-memory factorization of the same set, ms,
  /// each factor checked into `r`.
  double one_thread_ms(RunResult& r);

 private:
  struct Problem;
  std::vector<std::unique_ptr<Problem>> problems_;
  std::vector<std::unique_ptr<spf::rt::TcpTransport>> transports_;
  Rng rng_;
};

// ---- the socket server -----------------------------------------------------

struct ServeTotals {
  std::vector<double> lone_us;       ///< lone-phase single-RHS round trips
  std::vector<double> mixed_us;      ///< mixed-phase single-RHS round trips
  std::vector<double> submit_ms;     ///< finite resubmits
  std::vector<double> queue_wait_us; ///< server-reported queue wait, mixed
  std::vector<double> solve_rate;    ///< single-RHS solves/s per mixed phase
  std::vector<double> batch_rate;    ///< batched RHS/s per mixed phase
  std::vector<double> mixed_rhs_rate; ///< every RHS answered/s per mixed phase
  std::int64_t solve_frames = 0;     ///< every answered solve frame
  std::int64_t rounds = 0;
};

/// spf_serve --listen with its default flags, started as a child process,
/// plus the benchmark's four client connections.  Stops the server
/// (SIGTERM, then wait) on destruction, whatever happened before.
class ServeHarness {
 public:
  ServeHarness(const std::string& serve_binary, const std::string& work_dir,
               std::uint64_t seed, RunResult& r);
  ~ServeHarness();
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  /// One round: the lone phase, then the mixed phase; every request is
  /// an operation of `r`.
  void round(ServeTotals& t, RunResult& r);
  /// The server's stats document.
  std::string stats_json();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Path of the spf_serve binary built beside the benchmark.
std::string serve_binary_path();

}  // namespace perfbench
