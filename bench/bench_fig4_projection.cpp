// Figure 4 — Hierarchical radial visualization of three jobs on the
// 73-group Dragonfly (12 routers/group, 6 terminals/router).
//
// Rebuilds the exact view of Fig. 4(c): ribbons = intra-group local links
// bundled by router rank (size=traffic, color=saturation); inner ring =
// global links aggregated by router port (bar chart: color=sat, size=
// traffic); middle ring = terminals aggregated by port (heatmap of
// saturation); outer ring = individual terminals (scatter: color=job,
// size=avg latency, x=avg hops, y=data size).
#include <cstdio>
#include <set>

#include "bench_common.hpp"

int main() {
  using namespace dv;
  bench::banner(
      "Figure 4 — hierarchical radial view, 3 jobs on the 73-group network",
      "intra-group patterns + metric correlations in one customizable view");

  auto cfg = bench::fig13_config(placement::Policy::kRandomRouter,
                                 placement::Policy::kRandomRouter,
                                 placement::Policy::kRandomRouter);
  const auto result = app::run_experiment(cfg);
  std::printf("simulated %s (%llu events, %.1fs)\n",
              result.topo.describe().c_str(),
              static_cast<unsigned long long>(result.events),
              result.wall_seconds);

  const core::DataSet data(result.run);
  // The Fig. 4(a) interface configuration, via the builder API.
  const auto spec = core::SpecBuilder()
                        .level(core::Entity::kGlobalLink)
                        .aggregate({"router_rank", "router_port"})
                        .color("sat_time")
                        .size("traffic")
                        .colors({"white", "steelblue"})
                        .level(core::Entity::kTerminal)
                        .aggregate({"router_rank", "router_port"})
                        .color("sat_time")
                        .colors({"white", "steelblue"})
                        .level(core::Entity::kTerminal)
                        .color("workload")
                        .size("avg_latency")
                        .x("avg_hops")
                        .y("data_size")
                        .colors({"green", "orange", "brown"})
                        .ribbons(core::Entity::kLocalLink, "router_rank")
                        .build();
  const core::ProjectionView view(data, spec);
  view.save_svg(bench::out_path("fig4_projection.svg"), 900,
                "Fig. 4 — AMG + AMR Boxlib + MiniFE, random-router placement");

  std::printf("rings: %zu  ribbons: %zu  arcs: %zu\n", view.rings().size(),
              view.ribbons().size(), view.arcs().size());
  // Ring item counts match the hierarchy: 12 ranks x 6 global ports; 12x6
  // terminal ports; 5,256 individual terminals.
  bench::shape_check(view.rings()[0].items.size() == 12u * 6u,
                     "inner ring: one bar per (router rank, global port)");
  bench::shape_check(view.rings()[1].items.size() == 12u * 6u,
                     "middle ring: one heatmap cell per (rank, terminal port)");
  bench::shape_check(view.rings()[2].items.size() == 5256u,
                     "outer ring: one scatter point per terminal");
  bench::shape_check(view.rings()[2].type == core::PlotType::kScatter,
                     "outer ring plot type derives to scatter (4 channels)");
  // Ribbons bundle the 12x11 directed rank pairs into at most 66 bundles.
  bench::shape_check(view.ribbons().size() <= 66u && !view.ribbons().empty(),
                     "local links bundle into rank-pair ribbons");
  // Three jobs color the outer ring with three categorical colors (+gray).
  std::set<std::string> colors;
  for (const auto& it : view.rings()[2].items) colors.insert(it.color.hex());
  bench::shape_check(colors.size() == 4,
                     "outer ring shows 3 job colors + idle gray");
  return bench::footer();
}
