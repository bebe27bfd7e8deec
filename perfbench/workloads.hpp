// The three benchmark workloads. Each runs its operation in a closed loop
// for the requested seconds and returns its samples; main.cpp turns them
// into the result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "app/runner.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir;   ///< every file the workload writes goes here
  std::string run_file;  ///< brush: the run the daemon serves
};

/// What one workload run measured.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks, for stderr

  // End-to-end samples (from untraced operations).
  std::vector<double> setup_s;  ///< one per cold set-up
  std::vector<double> op_ms;    ///< latency of each successful timed op
  double loop_seconds = 0.0;    ///< wall time of the timed loop
  double disk_bytes = 0.0;
  double peak_rss_mb = 0.0;     ///< taken when the timed loop ends

  // Traced runs: per-layer metrics, and the latencies of the traced ops
  // (op_ms then holds the untraced ops interleaved with them).
  std::map<std::string, double> layers;
  std::vector<double> traced_op_ms;

  void fail(const std::string& what) { errors.push_back(what); }
};

/// The analyst's Fig. 4/13 design point: DF(6), AMG + AMR Boxlib +
/// MiniFE, adaptive routing, 20 us sampling, sequential packet engine.
dv::app::ExperimentConfig design_point_config(std::uint64_t seed);

Outcome run_design_point(const Options& opt, Tracer& tracer);
Outcome run_sweep(const Options& opt, Tracer& tracer);
Outcome run_brush(const Options& opt, Tracer& tracer);

/// Simulates the design point for `seed` and saves it where run_brush
/// reads it: the text run file plus a `.meta` line (frames, sample dt,
/// peak global-link traffic). Runs in its own process, so the simulator's
/// memory does not count towards brush's peak RSS.
void prepare_brush_run(std::uint64_t seed, const std::string& run_file);

/// Seconds recorded under obs phase `path` (0 when absent). The set-up
/// metrics read run_experiment's "setup" phase: placement, workload
/// generation and network construction.
double phase_seconds(const std::vector<dv::obs::PhaseStat>& phases,
                     const std::string& path);

}  // namespace perfbench
