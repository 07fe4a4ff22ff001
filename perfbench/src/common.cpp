#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

namespace perfbench {

namespace {

Clock::time_point g_setup_start;
double g_setup_excluded = 0.0;

thread_local std::int64_t t_parent = 0;
thread_local std::int64_t t_request = 0;
thread_local int t_thread = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool RunResult::check(bool ok, const std::string& what) {
  if (ok) return true;
  if (correct) notes.push_back("check failed: " + what);
  correct = false;
  return false;
}

void RunResult::detail(const std::string& name, double value, const std::string& unit) {
  std::ostringstream os;
  os << std::setprecision(6) << "detail " << name << " = " << value << " " << unit;
  notes.push_back(os.str());
}

void RunResult::merge_checks(const RunResult& other) {
  if (other.correct) return;
  if (correct) notes.insert(notes.end(), other.notes.begin(), other.notes.end());
  correct = false;
}

std::string result_json(const RunResult& r) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    os << (i ? ", " : "") << "\"" << json_escape(m.name) << "\": {\"value\": " << v
       << ", \"unit\": \"" << json_escape(m.unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

void start_setup_clock() {
  g_setup_start = Clock::now();
  g_setup_excluded = 0.0;
}

double setup_seconds() { return seconds_since(g_setup_start) - g_setup_excluded; }

BenchOnly::~BenchOnly() { g_setup_excluded += seconds_since(t0_); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

CscMatrix spd_values(const CscMatrix& pattern, Rng& rng) {
  const index_t n = pattern.ncols();
  const auto cp = pattern.col_ptr();
  const auto ri = pattern.row_ind();
  std::vector<double> vals(ri.size(), 0.0);
  std::vector<double> rowsum(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (count_t s = cp[static_cast<std::size_t>(j)]; s < cp[static_cast<std::size_t>(j) + 1];
         ++s) {
      const index_t i = ri[static_cast<std::size_t>(s)];
      if (i == j) continue;
      const double v = -(0.1 + 0.9 * rng.uniform());
      vals[static_cast<std::size_t>(s)] = v;
      rowsum[static_cast<std::size_t>(i)] += -v;
      rowsum[static_cast<std::size_t>(j)] += -v;
    }
  }
  for (index_t j = 0; j < n; ++j) {
    for (count_t s = cp[static_cast<std::size_t>(j)]; s < cp[static_cast<std::size_t>(j) + 1];
         ++s) {
      if (ri[static_cast<std::size_t>(s)] == j) {
        vals[static_cast<std::size_t>(s)] =
            rowsum[static_cast<std::size_t>(j)] + 1.0 + rng.uniform();
      }
    }
  }
  return {n, n, std::vector<count_t>(cp.begin(), cp.end()),
          std::vector<index_t>(ri.begin(), ri.end()), std::move(vals)};
}

std::vector<double> random_vector(std::size_t n, Rng& rng) {
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform() - 0.5;
  return b;
}

// ---- spans ----------------------------------------------------------------

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

std::int64_t SpanLog::next_id() {
  std::lock_guard<std::mutex> lk(mu_);
  return ++next_id_;
}

void SpanLog::record(Span s) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::vector<std::pair<std::string, double>> SpanLog::self_seconds() const {
  const std::vector<Span> all = spans();
  // Children are recorded on the parent's thread and nest inside it, so
  // the covered part is the sum of the children's durations.
  std::map<std::int64_t, std::int64_t> child_ns;
  for (const Span& s : all) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> by_layer;
  for (const Span& s : all) {
    const std::string layer = s.name.substr(0, s.name.find('.'));
    const std::int64_t self = (s.end_ns - s.start_ns) - child_ns[s.id];
    by_layer[layer] += static_cast<double>(std::max<std::int64_t>(self, 0)) * 1e-9;
  }
  return {by_layer.begin(), by_layer.end()};
}

void SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const Span& s : spans()) {
    os << (first ? "\n" : ",\n") << "{\"name\": \"" << json_escape(s.name)
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
       << ", \"ts\": " << static_cast<double>(s.start_ns) / 1e3
       << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << "}}";
    first = false;
  }
  os << "\n]}\n";
}

SpanScope::SpanScope(const char* name, std::int64_t request) {
  SpanLog& log = SpanLog::instance();
  if (!log.enabled()) return;
  on_ = true;
  span_.name = name;
  span_.id = log.next_id();
  span_.parent = t_parent;
  span_.request = request >= 0 ? request : t_request;
  span_.thread = t_thread;
  saved_parent_ = t_parent;
  saved_request_ = t_request;
  t_parent = span_.id;
  t_request = span_.request;
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (!on_) return;
  span_.end_ns = now_ns();
  t_parent = saved_parent_;
  t_request = saved_request_;
  SpanLog::instance().record(std::move(span_));
}

void set_span_thread(int thread) { t_thread = thread; }

}  // namespace perfbench
