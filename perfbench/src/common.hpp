// Shared plumbing of the end-to-end benchmark: run arguments, the result
// line, the benchmark's own random inputs, small statistics, and the
// in-memory span recorder of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "matrix/csc.hpp"

namespace perfbench {

using spf::count_t;
using spf::CscMatrix;
using spf::index_t;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< span files of traced runs, spf_serve port file and log
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the checks' verdict, the operation counts, and
/// every metric of the run's kind (end-to-end or per-layer).
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable notes for stderr (first failing check, and so on).
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// A workload's own figure for a reader: printed to stderr, not part
  /// of the result line.
  void detail(const std::string& name, double value, const std::string& unit);
  /// Record a failed check: the run stays whole but reports correct=false.
  /// Returns `ok`, so an operation can fold its checks into one verdict.
  bool check(bool ok, const std::string& what);
  /// Close one attempted operation: it failed unless `ok` (its status and
  /// every check of its output passed).
  void operation(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Take over another result's failed checks.
  void merge_checks(const RunResult& other);
  /// merge_checks, plus its operation counts (from a worker thread).
  void merge(const RunResult& other) {
    attempted += other.attempted;
    failed += other.failed;
    merge_checks(other);
  }
};

/// The last stdout line the benchmark prints.
std::string result_json(const RunResult& r);

// ---- clocks and statistics -----------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The time `s` seconds from now.
inline Clock::time_point after_seconds(double s) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Untimed refactorizations after set-up, before the clock starts (the
/// first warm ones run up to 3x slower while the allocator settles);
/// dist-mesh runs a quarter as many passes.  Warm-up operations are
/// checked and count as attempted.
inline constexpr int kWarmupRounds = 12;

// ---- the cold set-up window (setup_s) --------------------------------------

/// Open the set-up window: the first statement of main.
void start_setup_clock();
/// Seconds since start_setup_clock, less the time spent in BenchOnly
/// scopes: the program's cold set-up without the benchmark's own work.
double setup_seconds();

/// Scope of benchmark-only work inside the set-up window (making inputs);
/// its time is left out of setup_s.  Used on the main thread only.
class BenchOnly {
 public:
  BenchOnly() : t0_(Clock::now()) {}
  ~BenchOnly();
  BenchOnly(const BenchOnly&) = delete;
  BenchOnly& operator=(const BenchOnly&) = delete;

 private:
  Clock::time_point t0_;
};

/// Linear-interpolated quantile of `v` (copied; q in [0, 1]).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---- the benchmark's own random inputs -----------------------------------

/// SplitMix64, kept apart from the library's so inputs do not change when
/// the library's generator does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Integer in [lo, hi].
  index_t between(index_t lo, index_t hi) {
    return lo + static_cast<index_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t s_;
};

/// New SPD values on `pattern`'s lower triangle: off-diagonals in
/// [-1, -0.1), each diagonal strictly dominating its row of the full
/// symmetric matrix.
CscMatrix spd_values(const CscMatrix& pattern, Rng& rng);

/// Right-hand side with entries in [-0.5, 0.5).
std::vector<double> random_vector(std::size_t n, Rng& rng);

// ---- spans ----------------------------------------------------------------

/// One timed call into a layer.  `name` is "<layer>.<call>".
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;   ///< 0 = root
  std::int64_t request = 0;  ///< operation the span belongs to
  int thread = 0;
};

/// Process-wide span store: off unless the run is traced, in which case
/// spans are appended in memory and written out when the run ends.
class SpanLog {
 public:
  static SpanLog& instance();
  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  std::int64_t next_id();
  void record(Span s);
  [[nodiscard]] std::vector<Span> spans() const;
  /// Self time per layer in seconds: each span's duration minus the part
  /// of it its child spans cover, summed by layer name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_seconds() const;
  /// Chrome trace-event JSON of every span.
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::int64_t next_id_ = 0;
};

/// Scoped span: records [construction, destruction) when tracing is on;
/// a single branch when it is off.  Nests through a thread-local parent.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::int64_t request = -1);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool on_ = false;
  Span span_;
  std::int64_t saved_parent_ = 0;
  std::int64_t saved_request_ = 0;
};

/// Thread index recorded in spans (set by worker threads of the benchmark).
void set_span_thread(int thread);

}  // namespace perfbench
