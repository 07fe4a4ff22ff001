// Per-layer metrics of a traced run.  Each is timed from outside around a
// public call of its layer, or read from an output the program already
// exports (ParallelExecResult, TransportStats, the server's stats
// document, solve acks).  Every traced run reports the same set, on the
// same seeded inputs:
//   * analysis layers: one analyze-cold round at the engine's defaults;
//   * engine, core, exec, numeric: the refactor-3d grid;
//   * numeric LAP30, serve, net: LAP30 at spf_serve's defaults;
//   * rt, dist: one pass of the dist-mesh set.
#include "core/plan.hpp"
#include "engine/fingerprint.hpp"
#include "engine/solver_engine.hpp"
#include "exec/kernel_plan.hpp"
#include "exec/parallel_cholesky.hpp"
#include "exec/thread_pool.hpp"
#include "gen/suite.hpp"
#include "metrics/report.hpp"
#include "metrics/work.hpp"
#include "net/protocol.hpp"
#include "order/ordering.hpp"
#include "partition/dependencies.hpp"
#include "partition/partitioner.hpp"
#include "schedule/block_scheduler.hpp"
#include "schedule/wrap.hpp"
#include "serve/service.hpp"
#include "symbolic/row_structure.hpp"
#include "symbolic/symbolic_factor.hpp"
#include "checks.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Run fn() `reps` times and return the median wall time in seconds.
template <typename Fn>
double median_seconds(int reps, Fn fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    s.push_back(seconds_since(t0));
  }
  return median(s);
}

/// Accumulate the wall time of fn() into `acc` and return its result.
template <typename Fn>
auto timed(double& acc, const char* span, Fn fn) {
  SpanScope s(span);
  const auto t0 = Clock::now();
  auto r = fn();
  acc += seconds_since(t0);
  return r;
}

/// spf_serve's engine: the plan targets 4 processors.
spf::SolverEngineConfig serve_engine_config() {
  spf::SolverEngineConfig cfg;
  cfg.plan.nprocs = 4;
  return cfg;
}

void analysis_probes(const Args& args, RunResult& out) {
  const spf::SolverEngineConfig engine{};
  const spf::PlanConfig& pc = engine.plan;
  double order = 0, symbolic = 0, partition = 0, deps = 0, schedule = 0, kernel = 0,
         report = 0;
  count_t blocks = 0, edges = 0;
  for (const NamedMatrix& m : analyze_round(args.seed)) {
    const spf::Permutation perm =
        timed(order, "order.compute_ordering",
              [&] { return spf::compute_ordering(m.lower, pc.ordering); });
    out.check(is_bijection(perm.perm(), m.lower.ncols()), m.name + ": ordering");
    const CscMatrix permuted = spf::permute_lower(m.lower, perm.iperm());
    const spf::SymbolicFactor sf = timed(symbolic, "symbolic.symbolic_cholesky",
                                         [&] { return spf::symbolic_cholesky(permuted); });
    const spf::Partition p = timed(partition, "partition.partition_factor",
                                   [&] { return spf::partition_factor(sf, pc.partition); });
    blocks += p.num_blocks();
    const spf::BlockDeps d =
        timed(deps, "partition.block_dependencies", [&] { return spf::block_dependencies(p); });
    edges += d.num_edges();
    const std::vector<count_t> work = spf::block_work(p);
    const spf::Assignment a = timed(schedule, "schedule.block_schedule", [&] {
      return spf::block_schedule(p, d, work, pc.nprocs);
    });
    const spf::Partition cols = spf::column_partition(sf);
    const spf::Assignment wa = timed(schedule, "schedule.wrap_schedule",
                                     [&] { return spf::wrap_schedule(cols, pc.nprocs); });
    out.check(assignment_ok(a.proc_of_block, p.num_blocks(), pc.nprocs), m.name + ": block");
    out.check(assignment_ok(wa.proc_of_block, cols.num_blocks(), pc.nprocs), m.name + ": wrap");
    const spf::RowStructure rows = spf::build_row_structure(p.factor);
    timed(kernel, "exec.compile_kernel_plan", [&] {
      return spf::compile_kernel_plan(p, permuted.col_ptr(), permuted.row_ind(), rows);
    });
    const spf::MappingReport rep = timed(report, "metrics.evaluate_block",
                                         [&] { return spf::evaluate_mapping(p, a, work, &d); });
    const spf::MappingReport wrep = timed(
        report, "metrics.evaluate_wrap", [&] { return spf::evaluate_mapping(cols, wa); });
    out.check(work_ok(rep.total_work, p.factor.col_ptr()), m.name + ": block work");
    out.check(work_ok(wrep.total_work, cols.factor.col_ptr()), m.name + ": wrap work");
  }
  out.add("order.ms", order * 1e3, "ms");
  out.add("symbolic.ms", symbolic * 1e3, "ms");
  out.add("partition.ms", partition * 1e3, "ms");
  out.add("partition.blocks", static_cast<double>(blocks), "count");
  out.add("deps.ms", deps * 1e3, "ms");
  out.add("deps.edges", static_cast<double>(edges), "count");
  out.add("schedule.ms", schedule * 1e3, "ms");
  out.add("exec.kernel_compile_ms", kernel * 1e3, "ms");
  out.add("metrics.report_ms", report * 1e3, "ms");
}

void grid_probes(const Args& args, RunResult& out) {
  Rng rng(args.seed + 101);
  const spf::SolverEngineConfig cfg{};
  const CscMatrix a = spd_values(refactor_pattern(), rng);
  auto plan = std::make_shared<const spf::Plan>(spf::make_plan(a, cfg.plan));
  out.add("exec.kernel_plan_bytes", static_cast<double>(plan->kernels.byte_size()), "bytes");
  out.add("core.plan_bytes", static_cast<double>(plan->byte_size()), "bytes");

  out.add("engine.fingerprint_us", median_seconds(21, [&] {
            SpanScope s("engine.fingerprint_request");
            (void)spf::fingerprint_request(a, cfg.plan);
          }) * 1e6,
          "us");
  out.add("core.gather_ms", median_seconds(11, [&] {
            SpanScope s("core.permuted_input");
            (void)plan->permuted_input(a.values());
          }) * 1e3,
          "ms");
  const index_t threads = cfg.nthreads > 0 ? cfg.nthreads : cfg.plan.nprocs;
  out.add("exec.pool_create_us", median_seconds(21, [&] {
            SpanScope s("exec.thread_pool");
            spf::ThreadPool pool({.nthreads = threads});
          }) * 1e6,
          "us");

  // The engine's numeric call, with the engine's defaults.
  const CscMatrix permuted = plan->permuted_input(a.values());
  const spf::Mapping& m = plan->mapping;
  std::vector<double> wall, tasks, busy_over_wall, stolen, contention, imbalance;
  for (int i = 0; i < 7; ++i) {
    SpanScope s("exec.parallel_cholesky");
    const auto t0 = Clock::now();
    const spf::ParallelExecResult res = spf::parallel_cholesky(
        permuted, m.partition, m.deps, m.blk_work, m.assignment,
        {threads, cfg.allow_stealing, cfg.kernel, &plan->rows_of, &plan->kernels});
    wall.push_back(seconds_since(t0) * 1e3);
    double busy = 0.0, done = 0.0;
    for (double b : res.busy_seconds) busy += b;
    for (count_t c : res.blocks_done) done += static_cast<double>(c);
    tasks.push_back(done);
    busy_over_wall.push_back(res.wall_seconds > 0 ? busy / res.wall_seconds : 0.0);
    stolen.push_back(static_cast<double>(res.blocks_stolen));
    contention.push_back(static_cast<double>(res.queue_contention));
    imbalance.push_back(res.measured_imbalance());
  }
  out.add("exec.numeric_ms", median(wall), "ms");
  out.add("exec.tasks", median(tasks), "count");
  out.add("exec.busy_over_wall", median(busy_over_wall), "ratio");
  out.add("exec.blocks_stolen", median(stolen), "count");
  out.add("exec.queue_contention", median(contention), "count");
  out.add("exec.measured_imbalance", median(imbalance), "ratio");

  // Triangular solves on the engine's factor (the plan is preloaded, so
  // this factorization is warm).
  spf::SolverEngine engine(cfg);
  engine.preload(a, plan);
  const spf::Factorization f = engine.factorize(a);
  const auto n = static_cast<std::size_t>(a.ncols());
  const std::vector<double> b1 = random_vector(n, rng);
  const std::vector<double> b8 = random_vector(8 * n, rng);
  std::vector<double> x1, x8;
  out.add("numeric.trisolve_ms", median_seconds(11, [&] {
            SpanScope s("numeric.solve_batch_1");
            x1 = f.solve_batch(b1, 1);
          }) * 1e3,
          "ms");
  out.add("numeric.trisolve_per_rhs_ms_nrhs8", median_seconds(11, [&] {
            SpanScope s("numeric.solve_batch_8");
            x8 = f.solve_batch(b8, 8);
          }) * 1e3 / 8.0,
          "ms");
  out.check(solution_ok(a, x1, b1) && solution_ok(a, x8, b8, 8), "grid probe solves");
}

void lap30_probes(const Args& args, RunResult& out) {
  Rng rng(args.seed + 202);
  const CscMatrix a = spd_values(spf::stand_in("LAP30").lower, rng);
  const auto n = static_cast<std::size_t>(a.ncols());
  auto engine = std::make_shared<spf::SolverEngine>(serve_engine_config());
  auto f = std::make_shared<const spf::Factorization>(engine->factorize(a));
  const std::vector<double> b = random_vector(n, rng);
  std::vector<double> x;
  out.add("numeric.lap30_solve_us", median_seconds(201, [&] {
            SpanScope s("numeric.solve");
            x = f->solve(b);
          }) * 1e6,
          "us");
  out.check(solution_ok(a, x, b), "LAP30 probe solve");

  // In-process service at spf_serve's defaults: 2 workers, batches of 8,
  // 200 us linger.  A lone caller pays the linger on every request.
  spf::SolverServiceConfig scfg;
  scfg.workers = 2;
  scfg.coalesce.max_batch_rhs = 8;
  scfg.coalesce.linger_ns = 200'000;
  {
    spf::SolverService service(engine, scfg);
    spf::SolveResult res;
    out.add("serve.service_solve_us", median_seconds(201, [&] {
              SpanScope s("serve.submit_solve");
              res = service.submit_solve(f, b, 1).result.get();
            }) * 1e6,
            "us");
    out.check(res.status == spf::ServeStatus::kOk && solution_ok(a, res.x, b),
              "in-process service solve");
    service.stop();
  }

  // Codec: a LAP30 solve frame and its ack, encoded and decoded.
  spf::net::SolveMsg msg;
  msg.prefix.handle = 1;
  msg.prefix.n = static_cast<std::uint32_t>(n);
  msg.rhs = b;
  spf::net::SolveAckMsg ack;
  ack.n = static_cast<std::uint32_t>(n);
  ack.nrhs = 1;
  ack.x = x;
  bool same = true;
  out.add("net.codec_us", median_seconds(1001, [&] {
            SpanScope s("net.codec");
            const auto req = spf::net::encode(msg);
            const auto [h1, p1] = spf::net::split_frame(req);
            const spf::net::SolveMsg back = spf::net::decode_solve(p1);
            const auto rep = spf::net::encode(ack);
            const auto [h2, p2] = spf::net::split_frame(rep);
            const spf::net::SolveAckMsg back_ack = spf::net::decode_solve_ack(p2);
            same = same && back.rhs == msg.rhs && back_ack.x == ack.x;
          }) * 1e6,
          "us");
  out.check(same, "codec round trip changed a value");
}

void socket_probes(const Args& args, RunResult& out) {
  ServeTotals t;
  std::string stats;
  // The probe's operations stay out of the run's counts (see dist_probes).
  RunResult probe;
  {
    ServeHarness h(serve_binary_path(), args.out_dir.empty() ? "." : args.out_dir,
                   args.seed + 303, probe);
    for (int i = 0; i < 3; ++i) h.round(t, probe);
    stats = h.stats_json();
  }
  out.merge_checks(probe);
  out.add("serve.queue_wait_us_p50", median(t.queue_wait_us), "us");
  out.add("serve.mean_batch_width", json_number(stats, "mean_batch_width"), "rhs");
  out.add("net.request_us_p50", json_number(stats, "p50", "\"net.request_us\""), "us");
}

void dist_probes(const Args& args, RunResult& out) {
  DistMesh mesh(args.seed + 404);
  // The probe's operations stay out of the run's attempted count, so a
  // traced run fails the same share of operations as an untraced one.
  RunResult probe;
  const DistPassStats p = mesh.pass(probe);
  out.merge_checks(probe);
  out.add("rt.rank_wall_max_over_mean",
          p.wall_max_over_mean / static_cast<double>(p.factorizations), "ratio");
  out.add("rt.blocked_sends", static_cast<double>(p.blocked_sends), "count");
  out.add("rt.bytes", static_cast<double>(p.bytes), "bytes");
  out.add("rt.volume", static_cast<double>(p.volume), "elements");
  out.add("rt.msgs", static_cast<double>(p.messages), "messages");
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    SpanScope s("exec.one_thread_blocked");
    ms.push_back(mesh.one_thread_ms(out));
  }
  out.add("dist.one_thread_ms", median(ms), "ms");
}

}  // namespace

void run_layer_probes(const Args& args, RunResult& out) {
  SpanScope s("bench.probes");
  analysis_probes(args, out);
  grid_probes(args, out);
  lap30_probes(args, out);
  socket_probes(args, out);
  dist_probes(args, out);
}

}  // namespace perfbench
