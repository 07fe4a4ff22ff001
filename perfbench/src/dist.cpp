// dist-mesh: the paper's five stand-ins factorized by rt over the TCP
// transport, one rank thread per rank of a four-rank loopback mesh, at
// spf_rank's defaults.  Traffic here is the paper's communication metric
// measured on real messages.
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "core/pipeline.hpp"
#include "exec/kernel_plan.hpp"
#include "exec/parallel_cholesky.hpp"
#include "metrics/traffic.hpp"
#include "net/socket.hpp"
#include "rt/rt_cholesky.hpp"
#include "symbolic/row_structure.hpp"
#include "checks.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Run fn(rank) on one thread per rank and rethrow the first failure.
template <typename Fn>
void on_every_rank(Fn fn) {
  std::vector<std::thread> threads;
  std::mutex mu;
  std::exception_ptr first;
  for (index_t rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        set_span_thread(static_cast<int>(rank) + 1);
        fn(rank);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!first) first = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first) std::rethrow_exception(first);
}

}  // namespace

struct DistMesh::Problem {
  Problem(NamedMatrix m)
      : name(std::move(m.name)),
        lower(std::move(m.lower)),
        pipe(lower, spf::OrderingKind::kMmd),
        mapping(pipe.block_mapping(spf::PartitionOptions::with_grain(kRankGrain, kRankWidth),
                                   kRanks)) {
    BenchOnly check_inputs;
    analytic = spf::simulate_traffic(mapping.partition, mapping.assignment).volume;
  }

  std::string name;
  CscMatrix lower;
  spf::Pipeline pipe;
  spf::Mapping mapping;
  std::vector<count_t> analytic;  ///< simulate_traffic volume[dst * np + src]
  /// Inputs of the one-thread blocked reference, made on its first call
  /// (traced runs only).
  std::optional<spf::RowStructure> rows;
  std::optional<spf::KernelPlan> kernels;
};

DistMesh::DistMesh(std::uint64_t seed) : rng_(seed) {
  std::vector<NamedMatrix> inputs;
  {
    BenchOnly make_inputs;
    inputs = stand_ins();
    for (NamedMatrix& m : inputs) m.lower = spd_values(m.lower, rng_);
  }
  for (NamedMatrix& m : inputs) problems_.push_back(std::make_unique<Problem>(std::move(m)));
  // Rendezvous: every rank binds an ephemeral loopback port, then all
  // ranks dial the full mesh at once.
  std::vector<std::unique_ptr<spf::net::TcpListener>> listeners;
  std::vector<spf::rt::TcpPeer> peers;
  for (index_t rank = 0; rank < kRanks; ++rank) {
    listeners.push_back(std::make_unique<spf::net::TcpListener>("127.0.0.1", 0));
    peers.push_back({"127.0.0.1", listeners.back()->port()});
  }
  transports_.resize(static_cast<std::size_t>(kRanks));
  on_every_rank([&](index_t rank) {
    const auto r = static_cast<std::size_t>(rank);
    transports_[r] = std::make_unique<spf::rt::TcpTransport>(rank, peers,
                                                             std::move(listeners[r]));
  });
}

DistMesh::~DistMesh() {
  // close() is collective: every endpoint must close on its own thread.
  try {
    on_every_rank([&](index_t rank) {
      auto& t = transports_[static_cast<std::size_t>(rank)];
      if (t) t->close();
    });
  } catch (...) {
    for (auto& t : transports_) {
      if (t) t->shutdown();
    }
  }
}

DistPassStats DistMesh::pass(RunResult& r) {
  DistPassStats out;
  for (const auto& pp : problems_) {
    const Problem& p = *pp;
    const spf::Mapping& m = p.mapping;
    const CscMatrix& permuted = p.pipe.permuted_matrix();
    std::vector<spf::rt::TransportStats> before(kRanks), after(kRanks);
    std::vector<double> rank_wall(kRanks), rank_done(kRanks);
    std::vector<double> gathered;
    // Snapshot before any rank starts: a fast rank's first sends would
    // otherwise land in a slower rank's baseline.
    for (std::size_t rank = 0; rank < static_cast<std::size_t>(kRanks); ++rank) {
      before[rank] = transports_[rank]->stats();
    }
    SpanScope op("bench.dist_factor", r.attempted + 1);
    const auto t0 = Clock::now();
    on_every_rank([&](index_t rank) {
      const auto ur = static_cast<std::size_t>(rank);
      spf::rt::TcpTransport& t = *transports_[ur];
      const spf::rt::RtExecOptions opt;  // spf_rank's defaults: one thread per rank
      std::optional<spf::rt::RtRankResult> mine;
      {
        SpanScope s("rt.rank_factor");
        mine.emplace(spf::rt::rt_cholesky_rank(t, permuted, m.partition, m.deps,
                                               m.assignment, opt));
      }
      rank_done[ur] = seconds_since(t0);
      rank_wall[ur] = mine->wall_seconds;
      after[ur] = mine->transport;
      std::vector<double> all;
      {
        SpanScope s("rt.gather");
        all = spf::rt::rt_gather_factor(t, m.partition, m.assignment, mine->values);
      }
      if (rank == 0) gathered = std::move(all);
    });
    double wall_max = 0.0, wall_sum = 0.0, done = 0.0;
    std::vector<std::vector<count_t>> measured(kRanks, std::vector<count_t>(kRanks, 0));
    for (std::size_t dst = 0; dst < static_cast<std::size_t>(kRanks); ++dst) {
      wall_max = std::max(wall_max, rank_wall[dst]);
      wall_sum += rank_wall[dst];
      done = std::max(done, rank_done[dst]);
      for (std::size_t src = 0; src < static_cast<std::size_t>(kRanks); ++src) {
        measured[dst][src] = after[dst].recv_volume[src] - before[dst].recv_volume[src];
        out.volume += measured[dst][src];
      }
      out.messages += after[dst].messages_received - before[dst].messages_received;
      out.bytes += after[dst].bytes_received - before[dst].bytes_received;
      out.blocked_sends += after[dst].blocked_sends - before[dst].blocked_sends;
    }
    out.seconds += done;
    out.factor_ms.push_back(done * 1e3);
    out.wall_max_over_mean += wall_max / (wall_sum / static_cast<double>(kRanks));
    ++out.factorizations;

    BenchOnly checks;  // the first pass is part of the set-up window
    const bool ok = r.check(volumes_equal(measured, p.analytic, kRanks),
                            p.name + ": delivered volume differs from simulate_traffic");
    const std::vector<double> b = random_vector(static_cast<std::size_t>(p.lower.ncols()), rng_);
    const spf::SymbolicFactor& f = m.partition.factor;
    r.operation(r.check(gathered.size() == static_cast<std::size_t>(f.nnz()) &&
                            solution_ok(p.lower,
                                        factor_solve(f.col_ptr(), f.row_ind(), gathered,
                                                     p.pipe.permutation().perm(), b),
                                        b),
                        p.name + ": gathered factor fails the backward-error solve") &&
                ok);
  }
  return out;
}

double DistMesh::one_thread_ms(RunResult& r) {
  double ms = 0.0;
  for (const auto& pp : problems_) {
    Problem& p = *pp;
    const spf::Mapping& m = p.mapping;
    const CscMatrix& permuted = p.pipe.permuted_matrix();
    if (!p.kernels) {
      p.rows.emplace(spf::build_row_structure(m.partition.factor));
      p.kernels.emplace(spf::compile_kernel_plan(m.partition, permuted.col_ptr(),
                                                 permuted.row_ind(), *p.rows));
    }
    spf::ParallelExecOptions opt;
    opt.nthreads = 1;
    opt.kernel = spf::ExecKernel::kBlocked;
    opt.row_structure = &*p.rows;
    opt.kernel_plan = &*p.kernels;
    const auto t0 = Clock::now();
    const spf::ParallelExecResult res = spf::parallel_cholesky(
        permuted, m.partition, m.deps, m.blk_work, m.assignment, opt);
    ms += seconds_since(t0) * 1e3;
    const std::vector<double> b = random_vector(static_cast<std::size_t>(p.lower.ncols()), rng_);
    const spf::SymbolicFactor& f = m.partition.factor;
    r.check(solution_ok(p.lower,
                        factor_solve(f.col_ptr(), f.row_ind(), res.values,
                                     p.pipe.permutation().perm(), b),
                        b),
            p.name + ": one-thread blocked factor fails the backward-error solve");
  }
  return ms;
}

RunResult run_dist(const Args& args) {
  RunResult r;
  // Set-up: the pipelines and block mappings of the five stand-ins, the
  // mesh rendezvous, and the first pass over the set on fresh connections.
  std::optional<DistMesh> mesh;
  {
    SpanScope s("bench.setup");
    mesh.emplace(args.seed);
  }
  double setup_s = 0.0;

  DistPassStats total;
  std::vector<double> pass_seconds, factor_ms;
  std::optional<Clock::time_point> deadline;  // set once the warm-up is over
  for (int round = 0; !deadline || Clock::now() < *deadline; ++round) {
    if (round == 1) setup_s = setup_seconds();
    if (round == kWarmupRounds / 4) {
      pass_seconds.clear();
      factor_ms.clear();
      deadline = after_seconds(args.seconds);
    }
    const DistPassStats p = mesh->pass(r);
    pass_seconds.push_back(p.seconds);
    factor_ms.insert(factor_ms.end(), p.factor_ms.begin(), p.factor_ms.end());
    total.factorizations = p.factorizations;
    r.check(pass_seconds.size() == 1 || (p.volume == total.volume && p.messages == total.messages),
            "dist-mesh: traffic changed between passes");
    total.volume = p.volume;
    total.messages = p.messages;
  }
  r.add("setup_s", setup_s, "s");
  // Median pass: robust to a pass that a neighbour's burst slowed down.
  r.add("ops_per_s", static_cast<double>(total.factorizations) / median(pass_seconds), "1/s");
  r.add("latency_ms", median(factor_ms), "ms");  // one matrix on the mesh, gather included
  r.detail("dist_volume", static_cast<double>(total.volume), "elements");
  r.detail("dist_msgs", static_cast<double>(total.messages), "messages");
  return r;
}

}  // namespace perfbench
