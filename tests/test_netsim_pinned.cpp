// Pinned packet-backend output: small runs over every routing algorithm,
// sampled and unsampled, plus a two-job placement, the parallel engine and
// a faulted run. Each run's content uid covers the whole RunMetrics record
// (header, link rows with their endpoints, terminal rows, fault tallies,
// sampled series), so a change to the packet model or to the assembly of
// its record that moves any output byte fails here. Regenerate the
// constants only when a model change is intended, and say so in
// CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "app/runner.hpp"
#include "fault/fault.hpp"
#include "metrics/dvr.hpp"

namespace dv::app {
namespace {

struct PinnedRun {
  const char* name;
  std::uint32_t p;
  std::vector<JobSpec> jobs;
  const char* routing;
  double sample_dt;
  std::uint32_t parallel;
  const char* fault;  ///< one fault spec, or "" for a healthy network
  std::uint64_t uid;
};

JobSpec job(const char* workload, std::uint32_t ranks = 0,
            placement::Policy policy = placement::Policy::kContiguous) {
  JobSpec j;
  j.workload = workload;
  j.ranks = ranks;
  j.policy = policy;
  return j;
}

// DF(3) uniform random at the default window is light enough to run in
// milliseconds yet loads every link class. The parallel run must match
// its sequential twin (same uid). The faulted DF(4) run takes router g1.r0
// down for the first 400 us (240 retries, 38 drops), so its record carries
// the retry, drop, reroute and downtime columns.
const std::vector<PinnedRun>& pinned_runs() {
  static const std::vector<PinnedRun> runs = {
      {"ur_minimal", 3, {job("uniform_random")}, "minimal", 0, 1, "",
       0xec453ea891a63e94ull},
      {"ur_minimal_sampled", 3, {job("uniform_random")}, "minimal", 5000, 1,
       "", 0x15f005a9456240d4ull},
      {"ur_nonminimal", 3, {job("uniform_random")}, "nonminimal", 0, 1, "",
       0x65a63361b477b298ull},
      {"ur_nonminimal_sampled", 3, {job("uniform_random")}, "nonminimal",
       5000, 1, "", 0xd9de5223e5483741ull},
      {"ur_adaptive", 3, {job("uniform_random")}, "adaptive", 0, 1, "",
       0xaabf94b1414f1279ull},
      {"ur_adaptive_sampled", 3, {job("uniform_random")}, "adaptive", 5000, 1,
       "", 0x83b52e5ccb021731ull},
      {"ur_par", 3, {job("uniform_random")}, "par", 0, 1, "",
       0x6a199dfffcc6876dull},
      {"ur_par_sampled", 3, {job("uniform_random")}, "par", 5000, 1, "",
       0xa630ed7174232836ull},
      {"two_jobs_adaptive_sampled", 3,
       {job("uniform_random", 128),
        job("nearest_neighbor", 128, placement::Policy::kRandomRouter)},
       "adaptive", 5000, 1, "", 0x34262311d6494ee5ull},
      {"ur_nonminimal_parallel3_sampled", 3, {job("uniform_random")},
       "nonminimal", 5000, 3, "", 0xd9de5223e5483741ull},
      {"ur_minimal_faulted", 4, {job("uniform_random")}, "minimal", 0, 1,
       "router:g1.r0@0:400000", 0xf54b9da04acd0cd5ull},
  };
  return runs;
}

std::uint64_t run_uid(const PinnedRun& r) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = r.p;
  cfg.jobs = r.jobs;
  cfg.routing = routing::algo_from_string(r.routing);
  cfg.sample_dt = r.sample_dt;
  cfg.parallel = r.parallel;
  if (*r.fault) cfg.faults.faults.push_back(fault::parse_fault(r.fault));
  return metrics::run_content_uid(run_experiment(cfg).run);
}

TEST(NetsimPinnedOutput, ContentUidsMatchRecordedConstants) {
  for (const auto& r : pinned_runs()) {
    const std::uint64_t uid = run_uid(r);
    EXPECT_EQ(uid, r.uid) << r.name << ": actual 0x" << std::hex << uid;
  }
}

}  // namespace
}  // namespace dv::app
