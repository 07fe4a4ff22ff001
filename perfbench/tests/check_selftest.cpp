// Shows that every check of the benchmark passes on a correct output and
// fails on a corrupted one.  Exit code 0 when all do; run it with
// `python3 perfbench/run.py --self-test`.
#include <cmath>
#include <iostream>
#include <limits>
#include <string>

#include "core/pipeline.hpp"
#include "engine/solver_engine.hpp"
#include "gen/suite.hpp"
#include "metrics/traffic.hpp"
#include "checks.hpp"
#include "common.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool cond, const std::string& what) {
  std::cout << (cond ? "ok    " : "FAIL  ") << what << "\n";
  if (!cond) ++g_failures;
}

}  // namespace

int main() {
  Rng rng(7);
  const CscMatrix a = spd_values(spf::stand_in("LAP30").lower, rng);
  const auto n = static_cast<std::size_t>(a.ncols());

  // Backward error of an engine solve, and of corrupted solutions.
  spf::SolverEngine engine(spf::SolverEngineConfig{});
  const spf::Factorization f = engine.factorize(a);
  const std::vector<double> b = random_vector(n, rng);
  const std::vector<double> x = f.solve(b);
  expect(solution_ok(a, x, b), "backward error accepts the engine's solution");
  std::vector<double> bad = x;
  bad[n / 2] *= 1.0 + 1e-6;
  expect(!solution_ok(a, bad, b), "backward error rejects one entry off by 1e-6");
  bad = x;
  bad[3] = std::numeric_limits<double>::quiet_NaN();
  expect(!solution_ok(a, bad, b), "backward error rejects a NaN entry");
  expect(!solution_ok(a, x, random_vector(n, rng)), "backward error rejects another rhs");
  const std::vector<double> b8 = random_vector(8 * n, rng);
  std::vector<double> x8 = f.solve_batch(b8, 8);
  expect(solution_ok(a, x8, b8, 8), "batched backward error accepts 8 solutions");
  x8[7 * n + 1] += 1e-3;
  expect(!solution_ok(a, x8, b8, 8), "batched backward error rejects a bad last column");

  // Ordering bijection.
  const spf::Plan& plan = f.plan();
  const auto perm = plan.perm.perm();
  expect(is_bijection(perm, a.ncols()), "bijection accepts the engine's ordering");
  std::vector<index_t> dup(perm.begin(), perm.end());
  dup[5] = dup[6];
  expect(!is_bijection(dup, a.ncols()), "bijection rejects a repeated index");
  dup.assign(perm.begin(), perm.end() - 1);
  expect(!is_bijection(dup, a.ncols()), "bijection rejects a short ordering");

  // Block assignment.
  const spf::Mapping& m = plan.mapping;
  const index_t nb = m.partition.num_blocks();
  const index_t np = plan.config.nprocs;
  expect(assignment_ok(m.assignment.proc_of_block, nb, np), "assignment accepts the plan's");
  std::vector<index_t> asg = m.assignment.proc_of_block;
  asg[2] = np;
  expect(!assignment_ok(asg, nb, np), "assignment rejects a processor >= P");
  asg = m.assignment.proc_of_block;
  asg.pop_back();
  expect(!assignment_ok(asg, nb, np), "assignment rejects an unassigned block");
  asg = m.assignment.proc_of_block;
  asg[0] = -1;
  expect(!assignment_ok(asg, nb, np), "assignment rejects a negative processor");

  // Work count and the traffic bound, on the spf_analyze-style report.
  const spf::Pipeline pipe(a, spf::OrderingKind::kMmd);
  const spf::Mapping blk = pipe.block_mapping(spf::PartitionOptions::with_grain(25, 4), 16);
  const spf::MappingReport rep = blk.report();
  const auto fcp = blk.partition.factor.col_ptr();
  expect(work_ok(rep.total_work, fcp), "work count equals the report's total work");
  expect(!work_ok(rep.total_work + 1, fcp), "work count rejects a report off by one");
  expect(!work_ok(rep.total_work - 2, fcp), "work count rejects a report two short");
  const count_t nnzl = blk.partition.factor.nnz();
  expect(traffic_within_bound(rep.total_traffic, 16, nnzl), "traffic within P*nnz(L)");
  expect(!traffic_within_bound(16 * nnzl + 1, 16, nnzl), "traffic bound rejects P*nnz(L)+1");

  // Per-pair volume equality.
  const spf::Mapping m4 = pipe.block_mapping(spf::PartitionOptions::with_grain(8, 4), 4);
  const spf::TrafficReport tr = spf::simulate_traffic(m4.partition, m4.assignment);
  std::vector<std::vector<count_t>> measured(4, std::vector<count_t>(4, 0));
  for (std::size_t d = 0; d < 4; ++d) {
    for (std::size_t s = 0; s < 4; ++s) measured[d][s] = d == s ? 0 : tr.volume[d * 4 + s];
  }
  expect(volumes_equal(measured, tr.volume, 4), "volume check accepts the analytic matrix");
  measured[1][2] += 1;
  expect(!volumes_equal(measured, tr.volume, 4), "volume check rejects one pair off by one");

  // The benchmark's own triangular solves on a factor.
  const spf::SymbolicFactor& sf = m.partition.factor;
  const std::vector<double> xf =
      factor_solve(sf.col_ptr(), sf.row_ind(), f.values(), perm, b);
  expect(solution_ok(a, xf, b), "factor solve accepts the engine's factor");
  std::vector<double> lv(f.values().begin(), f.values().end());
  lv[lv.size() / 3] *= 1.01;
  expect(!solution_ok(a, factor_solve(sf.col_ptr(), sf.row_ind(), lv, perm, b), b),
         "factor solve rejects a factor with one value off by 1%");

  // Reading the server's stats document.
  const std::string doc = "{\"net\":{\"counters\":{\"net.solves\":42},\"histograms\":"
                          "{\"net.request_us\":{\"count\":3,\"p50\":255}}}}";
  expect(solves_match(doc, 42), "net.solves check accepts 42 answered frames");
  expect(!solves_match(doc, 43), "net.solves check rejects a frame the server missed");
  expect(!solves_match("{}", 0), "net.solves check rejects a document without the counter");
  expect(json_number(doc, "p50", "\"net.request_us\"") == 255.0, "stats reader finds p50");
  expect(std::isnan(json_number(doc, "net.nothing")), "stats reader reports a missing key");

  // An operation whose output fails a check counts as failed, and clears
  // the run's verdict; a worker's counts and verdict carry over.
  RunResult run;
  run.operation(run.check(solution_ok(a, x, b), "good solve"));
  expect(run.correct && run.attempted == 1 && run.failed == 0,
         "an operation with a correct output counts as attempted only");
  RunResult worker;
  worker.operation(worker.check(solution_ok(a, bad, b), "corrupted solve"));
  run.merge(worker);
  expect(!run.correct && run.attempted == 2 && run.failed == 1,
         "an operation with a corrupted output counts as failed");

  std::cout << (g_failures == 0 ? "all checks behave\n" : "some checks misbehave\n");
  return g_failures == 0 ? 0 : 1;
}
