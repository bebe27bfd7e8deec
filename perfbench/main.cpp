// perfbench — one workload run of the pipeline benchmark.
//
//   perfbench --workload design_point|sweep|brush --seed N --seconds S
//             --trace 0|1 --out DIR [--run-file PATH]
//   perfbench --prepare PATH --seed N     (writes brush's run file)
//
// Prints a provenance line, then the harness's result line: with --trace 0
// the end-to-end metric values, with --trace 1 the per-layer ones of the
// layers the workload enters (and the spans go to DIR/spans.json). run.py
// builds this binary, calls it and adds the units BENCHMARK.json declares.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

double phase_seconds(const std::vector<dv::obs::PhaseStat>& phases,
                     const std::string& path) {
  for (const auto& ph : phases) {
    if (ph.path == path) return ph.seconds;
  }
  return 0.0;
}

namespace {

/// A traced op's layer spans must account for this much of its wall time.
constexpr double kMinCoverage = 0.9;

std::string arg(int argc, char** argv, const std::string& key,
                const std::string& def = "") {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + key) return argv[i + 1];
  }
  return def;
}

std::string provenance(const Options& opt, double probe_before,
                       double probe_after, const Outcome& out) {
  std::string s = "{\"workload\": " + quote(opt.workload) +
                  ", \"seed\": " + std::to_string(opt.seed) +
                  ", \"seconds\": " + num(opt.seconds) +
                  ", \"trace\": " + (opt.trace ? "true" : "false") +
                  ", \"compiler\": " + quote(__VERSION__) +
                  ", \"hardware_threads\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ", \"host_probe_before_s\": " + num(probe_before) +
                  ", \"host_probe_after_s\": " + num(probe_after) +
                  ", \"ops\": " + std::to_string(out.op_ms.size()) +
                  ", \"traced_ops\": " +
                  std::to_string(out.traced_op_ms.size()) +
                  ", \"setups\": " + std::to_string(out.setup_s.size()) +
                  ", \"tail_quantile_supported\": " +
                  num(tail_quantile(out.op_ms.size())) + "}";
  return s;
}

int run(const Options& opt) {
  const double probe_before = host_probe_seconds();
  Tracer tracer(opt.trace ? Tracer::kCapacity : 0);
  Outcome out;
  if (opt.workload == "design_point") {
    out = run_design_point(opt, tracer);
  } else if (opt.workload == "sweep") {
    out = run_sweep(opt, tracer);
  } else if (opt.workload == "brush") {
    out = run_brush(opt, tracer);
  } else {
    std::cerr << "unknown workload: " << opt.workload << "\n";
    return 2;
  }
  const double probe_after = host_probe_seconds();
  {
    // Every sample behind the medians, for spread analysis.
    const auto list = [](const std::vector<double>& v) {
      std::string s = "[";
      for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + num(v[i]);
      return s + "]";
    };
    std::ofstream(opt.out_dir + "/samples.json")
        << "{\"op_ms\": " << list(out.op_ms) << ", \"traced_op_ms\": "
        << list(out.traced_op_ms) << ", \"setup_s\": " << list(out.setup_s)
        << "}\n";
  }

  bool correct = out.errors.empty() && out.failed == 0 && out.attempted > 0;
  std::map<std::string, double> values;
  if (!opt.trace) {
    const double ok = static_cast<double>(out.attempted - out.failed);
    values = {{"setup_s", median(out.setup_s)},
              {"view_p50_ms", median(out.op_ms)},
              {"view_p90_ms", quantile(out.op_ms, 0.9)},
              {"ops_per_s", ok / out.loop_seconds},
              {"disk_bytes", out.disk_bytes},
              {"peak_rss_mb", out.peak_rss_mb},
              {"ok_frac", out.attempted ? ok / out.attempted : 0.0}};
  } else {
    const auto spans = tracer.spans();
    out.layers["trace.spans"] = static_cast<double>(spans.size());
    out.layers["trace.overhead_ms"] =
        median(out.traced_op_ms) - median(out.op_ms);
    std::ofstream(opt.out_dir + "/spans.json") << tracer.to_json();
    if (tracer.dropped() > 0) {
      out.fail(std::to_string(tracer.dropped()) +
               " spans did not fit the tracer");
      correct = false;
    }
    if (out.layers["trace.coverage_min"] < kMinCoverage) {
      out.fail("traced layer spans cover only " +
               num(out.layers["trace.coverage_min"]) + " of an op");
      correct = false;
    }
    values = out.layers;
  }
  for (const auto& [name, value] : values) {
    if (!valid_metric_name(name)) {
      out.fail("invalid metric name: " + name);
      correct = false;
    }
  }
  for (const auto& e : out.errors) std::cerr << "check failed: " << e << "\n";

  std::cout << "provenance "
            << provenance(opt, probe_before, probe_after, out) << "\n"
            << result_json(correct, out.attempted, out.failed, values)
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const std::string prepare = arg(argc, argv, "prepare");
    const auto seed = std::strtoull(arg(argc, argv, "seed", "1").c_str(),
                                    nullptr, 10);
    if (!prepare.empty()) {
      prepare_brush_run(seed, prepare);
      return 0;
    }
    Options opt;
    opt.workload = arg(argc, argv, "workload");
    opt.seed = seed;
    opt.seconds = std::strtod(arg(argc, argv, "seconds", "20").c_str(),
                              nullptr);
    opt.trace = arg(argc, argv, "trace", "0") == "1";
    opt.out_dir = arg(argc, argv, "out");
    opt.run_file = arg(argc, argv, "run-file");
    if (opt.out_dir.empty() || opt.seconds <= 0) {
      std::cerr << "usage: perfbench --workload W --seed N --seconds S "
                   "--trace 0|1 --out DIR [--run-file PATH]\n";
      return 2;
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
