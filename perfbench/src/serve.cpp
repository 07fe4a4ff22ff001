// serve-socket: spf_serve --listen with its default flags, as a separate
// process, serving LAP30 to closed-loop clients (SolverClient callers
// block on each reply).  Every round has two phases on the same four
// connections:
//   * lone:  connection 0 sends single-RHS solves alone;
//   * mixed: connections 0 and 1 send single-RHS solves, connection 2
//            sends nrhs=8 batches, connection 3 resubmits new LAP30
//            values (a write beside the reads).
// One resubmit per round carries a +inf diagonal value.  The server
// factors it and answers OK with a finite, wrong factor; such an answer
// counts as a failed operation (an error reply would count as a pass).
// Every other operation fails when its status or a check of its output
// fails, or when its connection dies before it runs.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>

#include "gen/suite.hpp"
#include "net/client.hpp"
#include "checks.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kLoneSolves = 150;     ///< lone phase, connection 0
constexpr int kMixedSolves = 150;    ///< mixed phase, connections 0 and 1 each
constexpr int kMixedBatches = 30;    ///< mixed phase, connection 2
constexpr int kBatchRhs = 8;
constexpr int kResubmits = 4;        ///< mixed phase, connection 3
constexpr int kInfResubmit = 1;      ///< which resubmit carries the +inf
constexpr int kReadTimeoutMs = 30000;
constexpr int kServeWarmupRounds = 24;

using spf::net::SolverClient;

/// p99 of each block of kP99Block consecutive mixed-phase samples (four
/// rounds: 12 samples beyond each block's p99), median over the blocks.
/// A burst of host noise then moves one block's figure, not the run's.
constexpr std::size_t kP99Block = 4 * 2 * kMixedSolves;

double blocked_p99(const std::vector<double>& samples) {
  std::vector<double> per_block;
  for (std::size_t at = 0; at + kP99Block <= samples.size(); at += kP99Block) {
    per_block.push_back(quantile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(at),
                            samples.begin() + static_cast<std::ptrdiff_t>(at + kP99Block)),
        0.99));
  }
  return per_block.empty() ? quantile(samples, 0.99) : median(per_block);
}

}  // namespace

std::string serve_binary_path() {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len <= 0) throw std::runtime_error("cannot locate the benchmark binary");
  std::string self(buf, static_cast<std::size_t>(len));
  return self.substr(0, self.rfind('/')) + "/spf_serve";
}

struct ServeHarness::Impl {
  pid_t server = -1;
  std::uint16_t port = 0;
  std::vector<std::unique_ptr<SolverClient>> conns;
  CscMatrix pattern;
  Rng rng{1};
  /// The factorization readers solve against and the values it was
  /// submitted with (the backward error uses exactly those).
  std::uint64_t handle = 0;
  std::shared_ptr<const CscMatrix> values;
  std::atomic<std::int64_t> solve_frames{0};

  ~Impl() {
    conns.clear();
    if (server > 0) {
      ::kill(server, SIGTERM);
      int status = 0;
      for (int i = 0; i < 200; ++i) {  // up to 10 s, then SIGKILL
        if (::waitpid(server, &status, WNOHANG) == server) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      ::kill(server, SIGKILL);
      ::waitpid(server, &status, 0);
    }
  }

  void spawn(const std::string& binary, const std::string& dir) {
    const std::string port_file = dir + "/spf_serve.port";
    const std::string log_file = dir + "/spf_serve.log";
    std::remove(port_file.c_str());
    const pid_t parent = ::getpid();
    server = ::fork();
    if (server < 0) throw std::runtime_error("fork failed");
    if (server == 0) {
      // Die with the benchmark, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (::getppid() != parent) ::_exit(1);
      const int fd = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      std::vector<std::string> args = {binary, "--listen", "0", "--port-file", port_file};
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (port == 0) {
      std::ifstream in(port_file);
      int p = 0;
      if (in >> p && p > 0) {
        port = static_cast<std::uint16_t>(p);
        break;
      }
      int status = 0;
      if (::waitpid(server, &status, WNOHANG) == server) {
        server = -1;
        throw std::runtime_error("spf_serve exited during start-up (see " + log_file + ")");
      }
      if (Clock::now() > deadline) throw std::runtime_error("spf_serve did not start");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Submit `a` on connection c; returns the ack.
  spf::net::SubmitMatrixAckMsg submit(int c, const CscMatrix& a) {
    return conns[static_cast<std::size_t>(c)]->submit_matrix(a);
  }

  /// One single- or multi-RHS solve on connection c against handle h, an
  /// operation of `r` checked with the benchmark's SpMV.  Returns the
  /// round trip.
  double solve(int c, std::uint64_t h, const CscMatrix& a, int nrhs, Rng& rng,
               RunResult& r, double* queue_s) {
    const auto n = static_cast<std::size_t>(a.ncols());
    const std::vector<double> b = random_vector(n * static_cast<std::size_t>(nrhs), rng);
    const auto t0 = Clock::now();
    spf::net::SolveAckMsg ack;
    {
      SpanScope s(nrhs == 1 ? "net.solve" : "net.solve_batch");
      ack = conns[static_cast<std::size_t>(c)]->solve(
          h, b, static_cast<std::uint32_t>(n), static_cast<std::uint32_t>(nrhs));
    }
    const double dt = seconds_since(t0);
    ++solve_frames;
    if (queue_s != nullptr) *queue_s = ack.queue_seconds;
    const bool ok =
        r.check(ack.status == static_cast<std::uint8_t>(spf::ServeStatus::kOk),
                "serve-socket: solve status " + std::to_string(ack.status) + " " + ack.error);
    r.operation(r.check(solution_ok(a, ack.x, b, nrhs), "serve-socket: solution backward error") &&
                ok);
    return dt;
  }
};

ServeHarness::ServeHarness(const std::string& serve_binary, const std::string& work_dir,
                           std::uint64_t seed, RunResult& r)
    : impl_(std::make_unique<Impl>()) {
  Impl& s = *impl_;
  std::shared_ptr<const CscMatrix> first;
  {
    BenchOnly inputs;
    s.rng = Rng(seed);
    s.pattern = spf::stand_in("LAP30").lower;
    first = std::make_shared<const CscMatrix>(spd_values(s.pattern, s.rng));
  }
  s.spawn(serve_binary, work_dir);
  spf::net::SolverClientOptions copt;
  copt.port = s.port;
  copt.read_timeout_ms = kReadTimeoutMs;
  for (int c = 0; c < 4; ++c) s.conns.push_back(std::make_unique<SolverClient>(copt));
  const auto ack = s.submit(3, *first);
  r.check(ack.status == static_cast<std::uint8_t>(spf::ServeStatus::kOk),
          "serve-socket: initial LAP30 submit failed: " + ack.error);
  s.handle = ack.handle;
  s.values = first;
  // Set-up requests are checked but are no operations of the run, which
  // attempts whole rounds only.
  RunResult setup;
  s.solve(0, s.handle, *s.values, 1, s.rng, setup, nullptr);
  r.merge_checks(setup);
}

ServeHarness::~ServeHarness() = default;

std::string ServeHarness::stats_json() { return impl_->conns[0]->stats_json(); }

void ServeHarness::round(ServeTotals& t, RunResult& r) {
  Impl& s = *impl_;
  const std::uint64_t h = s.handle;
  const std::shared_ptr<const CscMatrix> a = s.values;
  SpanScope op("bench.serve_round", t.rounds + 1);

  {  // lone phase
    SpanScope phase("bench.lone");
    for (int i = 0; i < kLoneSolves; ++i) {
      t.lone_us.push_back(s.solve(0, h, *a, 1, s.rng, r, nullptr) * 1e6);
    }
  }

  // Mixed phase: per-connection inputs are drawn before the clock starts.
  std::vector<Rng> rngs;
  for (int c = 0; c < 4; ++c) rngs.emplace_back(s.rng.next());
  std::vector<std::shared_ptr<const CscMatrix>> resubmits;
  for (int k = 0; k < kResubmits; ++k) {
    CscMatrix v = spd_values(s.pattern, s.rng);
    if (k == kInfResubmit) {
      const index_t col = static_cast<index_t>(s.rng.next() % static_cast<std::uint64_t>(v.ncols()));
      v.values_mutable()[static_cast<std::size_t>(v.col_ptr()[static_cast<std::size_t>(col)])] =
          std::numeric_limits<double>::infinity();
    }
    resubmits.push_back(std::make_shared<const CscMatrix>(std::move(v)));
  }
  std::vector<RunResult> partial(4);
  std::vector<double> busy_s(4, 0.0);  // each connection's own active time
  std::vector<std::vector<double>> lat(2), waits(2), submit_ms(1);
  std::uint64_t next_handle = 0;
  std::shared_ptr<const CscMatrix> next_values;

  SpanScope phase("bench.mixed");
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      set_span_thread(c + 1);
      RunResult& pr = partial[static_cast<std::size_t>(c)];
      const int quota = c < 2 ? kMixedSolves : c == 2 ? kMixedBatches : kResubmits;
      try {
        if (c < 2) {
          for (int i = 0; i < kMixedSolves; ++i) {
            double q = 0.0;
            lat[static_cast<std::size_t>(c)].push_back(
                s.solve(c, h, *a, 1, rngs[static_cast<std::size_t>(c)], pr, &q) * 1e6);
            waits[static_cast<std::size_t>(c)].push_back(q * 1e6);
          }
        } else if (c == 2) {
          for (int i = 0; i < kMixedBatches; ++i) {
            s.solve(c, h, *a, kBatchRhs, rngs[2], pr, nullptr);
          }
        } else {
          for (int k = 0; k < kResubmits; ++k) {
            const auto ts = Clock::now();
            bool ok = false;
            std::uint64_t handle = 0;
            std::string err;
            try {
              SpanScope span("net.submit");
              const auto ack = s.submit(c, *resubmits[static_cast<std::size_t>(k)]);
              ok = ack.status == static_cast<std::uint8_t>(spf::ServeStatus::kOk);
              handle = ack.handle;
              err = ack.error;
            } catch (const spf::net::ProtocolError& e) {
              err = e.what();  // an in-band error reply
            }
            if (k == kInfResubmit) {
              pr.operation(!ok);  // the known fault: OK for a +inf matrix
              continue;
            }
            submit_ms[0].push_back(seconds_since(ts) * 1e3);
            pr.operation(pr.check(ok, "serve-socket: resubmit failed: " + err));
            next_handle = handle;
            next_values = resubmits[static_cast<std::size_t>(k)];
          }
        }
      } catch (const std::exception& e) {
        pr.check(false, std::string("serve-socket: connection ") + std::to_string(c) +
                            ": " + e.what());
        // The operation that threw and the rest of the quota never ran.
        pr.failed += quota - pr.attempted;
        pr.attempted = quota;
      }
      busy_s[static_cast<std::size_t>(c)] = seconds_since(t0);
    });
  }
  for (std::thread& th : threads) th.join();
  const double mixed_s = seconds_since(t0);

  for (const RunResult& pr : partial) r.merge(pr);
  for (int c = 0; c < 2; ++c) {
    const auto uc = static_cast<std::size_t>(c);
    t.mixed_us.insert(t.mixed_us.end(), lat[uc].begin(), lat[uc].end());
    t.queue_wait_us.insert(t.queue_wait_us.end(), waits[uc].begin(), waits[uc].end());
  }
  // Rates over each connection's own active time, so one connection's
  // tail after the others finished does not dilute another's rate.
  t.solve_rate.push_back(static_cast<double>(kMixedSolves) / busy_s[0] +
                         static_cast<double>(kMixedSolves) / busy_s[1]);
  t.batch_rate.push_back(static_cast<double>(kMixedBatches * kBatchRhs) / busy_s[2]);
  t.mixed_rhs_rate.push_back(static_cast<double>(2 * kMixedSolves + kMixedBatches * kBatchRhs) /
                             mixed_s);
  t.submit_ms.insert(t.submit_ms.end(), submit_ms[0].begin(), submit_ms[0].end());
  t.solve_frames = s.solve_frames.load();
  ++t.rounds;
  if (next_values) {
    s.handle = next_handle;
    s.values = next_values;
  }
}

RunResult run_serve(const Args& args) {
  RunResult r;
  const std::string dir = args.out_dir.empty() ? "." : args.out_dir;
  std::optional<ServeHarness> h;
  {
    SpanScope s("bench.setup");
    h.emplace(serve_binary_path(), dir, args.seed, r);
  }

  ServeTotals t;
  // Untimed rounds, whose operations still count as attempted: until the
  // tenant's handle table is full (64 handles, 4 resubmits a round) the
  // mixed phase's p99 runs ~3x higher.  The first round, on fresh
  // connections, closes the set-up window.
  double setup_s = 0.0;
  for (int i = 0; i < kServeWarmupRounds; ++i) {
    h->round(t, r);
    if (i == 0) setup_s = setup_seconds();
  }
  t.lone_us.clear();
  t.mixed_us.clear();
  t.submit_ms.clear();
  t.queue_wait_us.clear();
  t.solve_rate.clear();
  t.batch_rate.clear();
  t.mixed_rhs_rate.clear();
  const auto deadline = after_seconds(args.seconds);
  while (Clock::now() < deadline) h->round(t, r);

  const std::string stats = h->stats_json();
  r.check(solves_match(stats, t.solve_frames),
          "serve-socket: server net.solves differs from the client's " +
              std::to_string(t.solve_frames) + " answered solve frames");
  h.reset();  // SIGTERM the server and wait for it

  r.add("setup_s", setup_s, "s");
  r.add("ops_per_s", median(t.mixed_rhs_rate), "1/s");  // RHS answered in the mixed phase
  r.add("latency_ms", median(t.lone_us) * 1e-3, "ms");  // lone single-RHS round trip
  r.detail("solve_us_p50", median(t.mixed_us), "us");
  r.detail("solve_rps", median(t.solve_rate), "1/s");
  r.detail("batch_rhs_per_s", median(t.batch_rate), "1/s");
  r.detail("solve_us_p99", blocked_p99(t.mixed_us), "us");
  r.detail("submit_ms_p50", median(t.submit_ms), "ms");
  return r;
}

}  // namespace perfbench
