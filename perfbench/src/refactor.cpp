// refactor-3d: one 3D 7-point grid pattern factorized again and again
// through SolverEngine{} with new SPD values each round, one solve per
// round.  The plan cache hits on every measured round, so the numeric
// phase (exec, numeric) dominates.
#include <optional>

#include "engine/solver_engine.hpp"
#include "gen/grid3d.hpp"
#include "checks.hpp"
#include "workloads.hpp"

namespace perfbench {

CscMatrix refactor_pattern() { return spf::grid_laplacian_7pt_3d(kGrid, kGrid, kGrid); }

RunResult run_refactor(const Args& args) {
  RunResult r;
  Rng rng(args.seed);
  std::optional<CscMatrix> pattern, a;
  std::vector<double> b;
  {
    BenchOnly inputs;
    pattern.emplace(refactor_pattern());
    a.emplace(spd_values(*pattern, rng));
    b = random_vector(static_cast<std::size_t>(pattern->ncols()), rng);
  }
  const auto n = static_cast<std::size_t>(pattern->ncols());

  // Set-up: the cold plan build, the first numeric factorization and its
  // solve.
  spf::SolverEngine engine(spf::SolverEngineConfig{});
  std::vector<double> x;
  bool cold = false;
  {
    SpanScope span("bench.setup");
    SpanScope s("engine.factorize_cold");
    const spf::Factorization f = engine.factorize(*a);
    cold = !f.warm();
    x = f.solve(b);
  }
  const double setup_s = setup_seconds();
  r.check(cold, "refactor-3d: first factorization found a cached plan");
  r.check(solution_ok(*a, x, b), "refactor-3d: cold solve backward error");

  std::vector<double> factor_ms, solve_ms;
  std::vector<double> round_s;
  std::optional<Clock::time_point> deadline;  // set once the warm-up is over
  for (int round = 0; !deadline || Clock::now() < *deadline; ++round) {
    if (round == kWarmupRounds) {
      factor_ms.clear();
      solve_ms.clear();
      round_s.clear();
      deadline = after_seconds(args.seconds);
    }
    a.emplace(spd_values(*pattern, rng));
    b = random_vector(n, rng);
    bool warm = false;
    double tf = 0.0, ts = 0.0;
    {
      SpanScope op("bench.refactor", r.attempted + 1);
      const auto t0 = Clock::now();
      std::optional<spf::Factorization> f;
      {
        SpanScope s("engine.factorize");
        f.emplace(engine.factorize(*a));
      }
      const auto t1 = Clock::now();
      {
        SpanScope s("engine.solve");
        x = f->solve(b);
      }
      tf = std::chrono::duration<double>(t1 - t0).count();
      ts = seconds_since(t1);
      warm = f->warm();
    }
    factor_ms.push_back(tf * 1e3);
    solve_ms.push_back(ts * 1e3);
    round_s.push_back(tf + ts);
    const bool ok = r.check(warm, "refactor-3d: warm round missed the plan cache");
    r.operation(r.check(solution_ok(*a, x, b), "refactor-3d: solve backward error") && ok);
  }

  r.add("setup_s", setup_s, "s");
  r.add("ops_per_s", 1.0 / median(round_s), "1/s");  // refactorizations, each with its solve
  r.add("latency_ms", median(factor_ms), "ms");      // warm factorize
  r.detail("solve_ms_p50", median(solve_ms), "ms");
  return r;
}

}  // namespace perfbench
