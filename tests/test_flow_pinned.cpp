// Pinned flow-backend output: small runs over every routing algorithm,
// with and without router-pair coarsening, fixed-epoch stepping, and a
// workload whose bundles queue several messages (so a partly drained head
// message crosses step and frame boundaries). Each run's content uid is
// compared with the constant recorded for it; a change to the flow engine
// that moves any output byte fails here. Regenerate the constants only
// when a model change is intended, and say so in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "app/runner.hpp"
#include "metrics/dvr.hpp"

namespace dv::app {
namespace {

struct PinnedRun {
  const char* name;
  std::uint32_t p;
  const char* workload;
  const char* routing;
  bool coarsen;
  const char* stepping;
  double scale;
  double window;
  double sample_dt;
  std::uint64_t uid;
};

// Congested DF(4) uniform random (short window, 4x volume) drives the
// adaptive decisions and multi-round solves; DF(3) nearest neighbour at 8x
// volume queues 16 messages per terminal pair and takes the incremental
// re-solve path.
const std::vector<PinnedRun>& pinned_runs() {
  static const std::vector<PinnedRun> runs = {
      {"ur_minimal", 4, "uniform_random", "minimal", false, "event", 4, 2e5, 0,
       0x9b35668d7e13f3a0ull},
      {"ur_minimal_coarse", 4, "uniform_random", "minimal", true, "event", 4,
       2e5, 0, 0x84f075341aeee296ull},
      {"ur_nonminimal", 4, "uniform_random", "nonminimal", false, "event", 4,
       2e5, 0, 0x8edf5c97e6acd407ull},
      {"ur_nonminimal_coarse", 4, "uniform_random", "nonminimal", true,
       "event", 4, 2e5, 0, 0xad8d3ed1e17b08aaull},
      {"ur_adaptive", 4, "uniform_random", "adaptive", false, "event", 4, 2e5,
       0, 0xbce962d6adea93e6ull},
      {"ur_adaptive_coarse", 4, "uniform_random", "adaptive", true, "event", 4,
       2e5, 0, 0x437003efcf1ef938ull},
      {"ur_par", 4, "uniform_random", "par", false, "event", 4, 2e5, 0,
       0x968f911e55d30db2ull},
      {"ur_par_coarse", 4, "uniform_random", "par", true, "event", 4, 2e5, 0,
       0x3e61d1ad63487294ull},
      {"ur_adaptive_fixed", 4, "uniform_random", "adaptive", false, "fixed", 4,
       2e5, 0, 0x8340aefb89e3bdbaull},
      {"ur_adaptive_fixed_sampled", 3, "uniform_random", "adaptive", false,
       "fixed", 4, 1e5, 5000, 0x87ebebf5324c0859ull},
      {"nn_adaptive_sampled", 3, "nearest_neighbor", "adaptive", false,
       "event", 8, 5e4, 2000, 0xaa6940979d6faf0dull},
      {"nn_adaptive_sampled_coarse", 3, "nearest_neighbor", "adaptive", true,
       "event", 8, 5e4, 2000, 0x7b069f36e5141f43ull},
  };
  return runs;
}

std::uint64_t run_uid(const PinnedRun& r) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = r.p;
  JobSpec job;
  job.workload = r.workload;
  cfg.jobs.push_back(job);
  cfg.routing = routing::algo_from_string(r.routing);
  cfg.traffic_scale = r.scale;
  cfg.window = r.window;
  cfg.sample_dt = r.sample_dt;
  cfg.backend = Backend::kFlow;
  cfg.flow_coarsen = r.coarsen;
  cfg.flow_stepping = r.stepping;
  return metrics::run_content_uid(run_experiment(cfg).run);
}

TEST(FlowPinnedOutput, ContentUidsMatchRecordedConstants) {
  for (const auto& r : pinned_runs()) {
    const std::uint64_t uid = run_uid(r);
    EXPECT_EQ(uid, r.uid) << r.name << ": actual 0x" << std::hex << uid;
  }
}

}  // namespace
}  // namespace dv::app
