// Differential cross-validation of the flow backend against the packet
// simulator on the paper's Fig. 7 synthetic scenarios: identical metrics
// schema, matching saturation ordering between scenarios, rank-correlated
// per-link load, and byte-identical view plumbing over either backend.
#include <gtest/gtest.h>

#include <vector>

#include "app/runner.hpp"
#include "core/datatable.hpp"
#include "core/presets.hpp"
#include "core/projection.hpp"
#include "util/stats.hpp"

namespace dv::app {
namespace {

/// Fig. 7 scale: canonical p=3 dragonfly (342 terminals), small volumes so
/// the packet reference stays fast in debug/sanitizer builds.
ExperimentConfig base_config(Backend backend, const std::string& workload) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = 3;
  JobSpec job;
  job.workload = workload;
  cfg.jobs.push_back(job);
  cfg.routing = routing::Algo::kAdaptive;
  cfg.window = 1.0e5;
  cfg.synthetic_bytes_per_rank = 16 * 1024;
  cfg.seed = 5;
  cfg.backend = backend;
  return cfg;
}

metrics::RunMetrics run_one(Backend backend, const std::string& workload) {
  auto cfg = base_config(backend, workload);
  return run_experiment(cfg).run;
}

/// Per-link traffic over both link classes, in id order.
std::vector<double> link_traffic(const metrics::RunMetrics& run) {
  std::vector<double> v;
  v.reserve(run.local_links.size() + run.global_links.size());
  for (const auto& l : run.local_links) v.push_back(l.traffic);
  for (const auto& l : run.global_links) v.push_back(l.traffic);
  return v;
}

/// Peak per-link saturated time — the scalar the paper's Fig. 7 colour
/// scale encodes (how long the busiest link was at capacity).
double peak_link_sat(const metrics::RunMetrics& run) {
  double peak = 0.0;
  for (const auto& l : run.local_links) peak = std::max(peak, l.sat_time);
  for (const auto& l : run.global_links) peak = std::max(peak, l.sat_time);
  return peak;
}

TEST(FlowVsPacket, RunMetricsSchemaIsIdentical) {
  const auto flow = run_one(Backend::kFlow, "uniform_random");
  const auto packet = run_one(Backend::kPacket, "uniform_random");

  // Topology echo and labels.
  EXPECT_EQ(flow.groups, packet.groups);
  EXPECT_EQ(flow.routers_per_group, packet.routers_per_group);
  EXPECT_EQ(flow.terminals_per_router, packet.terminals_per_router);
  EXPECT_EQ(flow.global_per_router, packet.global_per_router);
  EXPECT_EQ(flow.workload, packet.workload);
  EXPECT_EQ(flow.routing, packet.routing);
  EXPECT_EQ(flow.placement, packet.placement);
  EXPECT_EQ(flow.job_names, packet.job_names);
  EXPECT_EQ(flow.seed, packet.seed);

  // Entity tables: same cardinality, same id wiring per row.
  ASSERT_EQ(flow.local_links.size(), packet.local_links.size());
  for (std::size_t i = 0; i < flow.local_links.size(); ++i) {
    EXPECT_EQ(flow.local_links[i].src_router, packet.local_links[i].src_router);
    EXPECT_EQ(flow.local_links[i].src_port, packet.local_links[i].src_port);
    EXPECT_EQ(flow.local_links[i].dst_router, packet.local_links[i].dst_router);
    EXPECT_EQ(flow.local_links[i].dst_port, packet.local_links[i].dst_port);
  }
  ASSERT_EQ(flow.global_links.size(), packet.global_links.size());
  for (std::size_t i = 0; i < flow.global_links.size(); ++i) {
    EXPECT_EQ(flow.global_links[i].src_router, packet.global_links[i].src_router);
    EXPECT_EQ(flow.global_links[i].src_port, packet.global_links[i].src_port);
    EXPECT_EQ(flow.global_links[i].dst_router, packet.global_links[i].dst_router);
    EXPECT_EQ(flow.global_links[i].dst_port, packet.global_links[i].dst_port);
  }
  ASSERT_EQ(flow.terminals.size(), packet.terminals.size());
  for (std::size_t i = 0; i < flow.terminals.size(); ++i) {
    EXPECT_EQ(flow.terminals[i].router, packet.terminals[i].router);
    EXPECT_EQ(flow.terminals[i].port, packet.terminals[i].port);
    EXPECT_EQ(flow.terminals[i].job, packet.terminals[i].job);
  }

  // Both backends inject the exact same workload bytes.
  EXPECT_DOUBLE_EQ(flow.total_injected(), packet.total_injected());
  EXPECT_EQ(flow.total_packets_finished(), packet.total_packets_finished());

  // The VA substrate sees identical column schemas per entity class.
  const core::DataSet fds(flow), pds(packet);
  for (const auto e : {core::Entity::kRouter, core::Entity::kLocalLink,
                       core::Entity::kGlobalLink, core::Entity::kTerminal}) {
    EXPECT_EQ(fds.table(e).column_names(), pds.table(e).column_names())
        << to_string(e);
    EXPECT_EQ(fds.table(e).rows(), pds.table(e).rows()) << to_string(e);
  }
}

TEST(FlowVsPacket, SaturationOrderingMatchesOnFig7Scenarios) {
  // Fig. 7's contrast: stride-p nearest neighbour concentrates every
  // router's flows onto few links (congestion-forming); uniform random
  // spreads them. Under minimal routing and heavy load (12x, past link
  // capacity) the backends must agree which scenario is more congested
  // AND which finishes later, even though absolute numbers differ.
  auto congested = [](Backend backend, const std::string& workload) {
    auto cfg = base_config(backend, workload);
    cfg.routing = routing::Algo::kMinimal;
    cfg.traffic_scale = 12.0;
    return run_experiment(cfg).run;
  };
  const auto flow_nn = congested(Backend::kFlow, "nearest_neighbor");
  const auto flow_ur = congested(Backend::kFlow, "uniform_random");
  const auto pkt_nn = congested(Backend::kPacket, "nearest_neighbor");
  const auto pkt_ur = congested(Backend::kPacket, "uniform_random");

  // Saturation ordering (with margin: NN's hot links stay saturated for
  // several times longer than UR's busiest link in both models).
  EXPECT_GT(peak_link_sat(flow_nn), 2.0 * peak_link_sat(flow_ur));
  EXPECT_GT(peak_link_sat(pkt_nn), 2.0 * peak_link_sat(pkt_ur));
  // The congested scenario also drains later in both models.
  EXPECT_GT(flow_nn.end_time, flow_ur.end_time);
  EXPECT_GT(pkt_nn.end_time, pkt_ur.end_time);
}

TEST(FlowVsPacket, LinkLoadRankCorrelates) {
  for (const char* workload : {"nearest_neighbor", "uniform_random"}) {
    const auto flow = link_traffic(run_one(Backend::kFlow, workload));
    const auto packet = link_traffic(run_one(Backend::kPacket, workload));
    ASSERT_EQ(flow.size(), packet.size());
    // Fluid rates ignore transient queueing, so we validate the *ordering*
    // of link loads, not their magnitudes.
    EXPECT_GE(spearman(flow, packet), 0.6) << workload;
  }
}

TEST(FlowVsPacket, FlowOnlyOptionsAreValidatedPerBackend) {
  // --flow-coarsen silently doing nothing on the packet backend would
  // invite apples-to-oranges comparisons; the runner must reject it.
  auto cfg = base_config(Backend::kPacket, "uniform_random");
  cfg.flow_coarsen = true;
  EXPECT_THROW(run_experiment(cfg), Error);
  // Unknown stepping names fail loudly instead of falling back to event.
  cfg = base_config(Backend::kFlow, "uniform_random");
  cfg.flow_stepping = "quantum";
  EXPECT_THROW(run_experiment(cfg), Error);
  // The flow backend has no parallel engine; --parallel 4 must not be
  // silently run sequentially.
  cfg = base_config(Backend::kFlow, "uniform_random");
  cfg.parallel = 4;
  EXPECT_THROW(run_experiment(cfg), Error);
  // The same options are accepted where they mean something.
  cfg = base_config(Backend::kFlow, "uniform_random");
  cfg.flow_coarsen = true;
  cfg.flow_stepping = "fixed";
  EXPECT_GT(run_experiment(cfg).run.total_injected(), 0.0);
}

TEST(FlowVsPacket, SolverTelemetryIsPopulatedOnlyByTheFlowBackend) {
  const auto flow = run_experiment(base_config(Backend::kFlow,
                                               "uniform_random"));
  EXPECT_GT(flow.flow.epochs, 0u);
  EXPECT_GT(flow.flow.solves, 0u);
  EXPECT_EQ(flow.flow.solves,
            flow.flow.full_solves + flow.flow.incremental_solves);
  EXPECT_GT(flow.flow.solver_rounds, 0u);
  EXPECT_GT(flow.flow.drain_events, 0u);

  const auto packet = run_experiment(base_config(Backend::kPacket,
                                                 "uniform_random"));
  EXPECT_EQ(packet.flow.epochs, 0u);
  EXPECT_EQ(packet.flow.solves, 0u);
  EXPECT_EQ(packet.flow.solver_rounds, 0u);
  EXPECT_EQ(packet.flow.drain_events, 0u);
}

TEST(FlowVsPacket, ViewPlumbingIsByteIdenticalPerBackend) {
  // The same spec machinery must run unchanged over either backend's run
  // and render deterministically (two builds -> identical SVG bytes).
  const auto spec = core::preset("overview");
  for (const auto backend : {Backend::kFlow, Backend::kPacket}) {
    const auto run = run_one(backend, "uniform_random");
    const core::DataSet ds(run);
    const core::ProjectionView a(ds, spec);
    const core::ProjectionView b(ds, spec);
    ASSERT_FALSE(a.rings().empty());
    EXPECT_EQ(a.to_svg(640, "t"), b.to_svg(640, "t"));
  }
}

}  // namespace
}  // namespace dv::app
