// perfbench: run one workload of the spfactor end-to-end benchmark and
// print its result as the last stdout line (see perfbench/README.md).
//
//   perfbench --workload refactor-3d|analyze-cold|serve-socket|dist-mesh
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Exit code 0 whenever the run completes (its checks' verdict is the
// "correct" field); 2 on bad arguments; 1 when the run cannot complete.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "numeric/simd.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench --workload refactor-3d|analyze-cold|serve-socket|"
               "dist-mesh --seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out-dir") {
      a.out_dir = v;
    } else {
      usage();
    }
  }
  if (a.workload.empty() || !(a.seconds > 0.0)) usage();
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  start_setup_clock();
  const Args args = parse(argc, argv);
  if (args.trace) SpanLog::instance().enable();
  std::cerr << "perfbench: workload " << args.workload << " seed " << args.seed
            << " simd tier " << spf::simd_tier_name(spf::active_simd_tier()) << "\n";
  try {
    RunResult r;
    if (args.workload == "refactor-3d") {
      r = run_refactor(args);
    } else if (args.workload == "analyze-cold") {
      r = run_analyze(args);
    } else if (args.workload == "serve-socket") {
      r = run_serve(args);
    } else if (args.workload == "dist-mesh") {
      r = run_dist(args);
    } else {
      usage();
    }
    if (args.trace) {
      // End-to-end figures of a traced run only show the tracing overhead.
      for (const Metric& m : r.metrics) {
        std::cerr << "traced end-to-end " << m.name << " = " << m.value << " " << m.unit
                  << "\n";
      }
      r.metrics.clear();
      run_layer_probes(args, r);
      for (const auto& [layer, s] : SpanLog::instance().self_seconds()) {
        std::cerr << "self time " << layer << " = " << s * 1e3 << " ms\n";
      }
      if (!args.out_dir.empty()) {
        const std::string path =
            args.out_dir + "/spans-" + args.workload + "-" + std::to_string(args.seed) + ".json";
        SpanLog::instance().write(path);
        std::cerr << "spans written to " << path << "\n";
      }
    }
    for (const std::string& note : r.notes) std::cerr << "perfbench: " << note << "\n";
    std::cout << result_json(r) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
