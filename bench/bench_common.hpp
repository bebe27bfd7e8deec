// Shared helpers for the per-figure benchmark harnesses.
//
// Every bench regenerates one table/figure of the paper: it runs the
// corresponding simulations, prints the same rows/series the paper
// reports, renders the figure's SVG into ./bench_out/, and checks the
// qualitative *shape* claims ([shape OK] / [shape MISMATCH] lines).
// Absolute numbers are not expected to match the authors' testbed.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "app/runner.hpp"
#include "core/comparison.hpp"
#include "core/views.hpp"
#include "metrics/run_metrics.hpp"

namespace dv::bench {

/// Runs `fn` once untimed (warm-up: page-in, allocator and cache state),
/// then `reps` timed repetitions, and returns the median per-repetition
/// wall seconds — robust against a stray slow rep on shared CI hardware,
/// unlike the mean over one timed block.
double median_seconds(int reps, const std::function<void()>& fn);

/// JSON object literal describing how a BENCH_*.json number was produced:
/// compiler, build flavour (optimized / assertions), observability state,
/// hardware threads. Stamped into every benchmark artifact so a number is
/// never compared against one from a different build configuration.
std::string provenance_json();

/// Aggregate statistics over one link class.
struct LinkClassStats {
  int used = 0;
  double traffic = 0.0;
  double sat = 0.0;
  double peak_sat = 0.0;
};
LinkClassStats link_stats(const std::vector<metrics::LinkMetrics>& links);

/// Aggregate terminal statistics, optionally restricted to one job.
struct TermStats {
  double avg_latency = 0.0;
  double avg_hops = 0.0;
  double sat = 0.0;
  std::uint64_t packets = 0;
};
TermStats term_stats(const metrics::RunMetrics& run, std::int32_t job = -2);

/// Prints the bench banner (figure id + what the paper reports there) and
/// resets the observability registry so footer() can emit a per-bench
/// profile named after the figure id.
void banner(const std::string& figure, const std::string& paper_claim);

/// Records and prints one qualitative shape check.
void shape_check(bool ok, const std::string& description);

/// Number of failed shape checks so far (printed in the footer).
int shape_failures();

/// Prints the closing summary; returns 0 (benches never fail the run —
/// mismatches are reported, not fatal). In DV_OBS_ENABLED builds it also
/// writes bench_out/<figure-slug>.profile.json — the observability profile
/// accumulated across every simulation the bench ran since banner().
int footer();

/// Ensures ./bench_out exists and returns "bench_out/<name>".
std::string out_path(const std::string& name);

/// Standard experiment shortcuts used by several figures.
app::ExperimentConfig paper_df5_app(const std::string& app,
                                    routing::Algo algo);
app::ExperimentConfig fig13_config(placement::Policy amg,
                                   placement::Policy amr,
                                   placement::Policy minife);

}  // namespace dv::bench
