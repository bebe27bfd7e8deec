// Figure 5 — Script-specified projection views.
//
// Runs the Fig. 4/13 three-job simulation and then builds the paper's two
// scripted views verbatim:
//   (a) the whole 73-group network aggregated to 9 partitions via
//       maxBins: 8, and
//   (b) a detail view of the first 9 groups via filter: group_id [0, 8],
//       showing per-(rank, port) local-link heatmaps and terminal scatter.
#include <cstdio>

#include "bench_common.hpp"

namespace {

// Scripts as printed in the paper (Fig. 5a / 5b), with attribute names
// resolved to this library's entity-table columns.
const char* kScriptA = R"(
{ aggregate : "group_id",
  maxBins : 8,
  project : "global_link",
  vmap : { color : "sat_time", size : "traffic" },
  colors : ["white", "purple"]},
{ project : "router",
  aggregate : "router_rank",
  vmap : { color : "local_sat_time", },
  colors : ["white", "steelblue"],},
{ project : "terminal",
  aggregate : ["router_port", "workload"],
  vmap: { color :"workload", size : "avg_hops", },
  colors: ["green", "orange", "brown"],},
{ ribbons: { project: "global_link", key: "job",
             vmap: { size: "traffic", color: "sat_time" },
             colors: ["white", "purple"] } }
)";

const char* kScriptB = R"(
{ filter: { group_id : [0, 8] },
  aggregate : "group_id",
  project : "router",
  vmap : { size : "global_traffic"},
  colors : ["white", "purple"]},
{ filter: { group_id : [0, 8] },
  project : "local_link",
  aggregate : ["router_rank", "router_port"],
  vmap : { color : "traffic", x : "router_rank", y : "router_port" },
  colors : ["white", "steelblue"],},
{ filter: { group_id : [0, 8] },
  project : "terminal",
  aggregate : ["router_rank", "router_port"],
  vmap: { color :"workload", size : "data_size",
          x : "router_rank", y : "router_port" },
  colors: ["green", "orange", "brown"],
  border: false}
)";

}  // namespace

int main() {
  using namespace dv;
  bench::banner("Figure 5 — script-specified projection views",
                "73 groups aggregated to 9 partitions (maxBins: 8); detail "
                "view of the first 9 groups (filter)");

  auto cfg = bench::fig13_config(placement::Policy::kRandomRouter,
                                 placement::Policy::kRandomRouter,
                                 placement::Policy::kRandomRouter);
  const auto result = app::run_experiment(cfg);
  const core::DataSet data(result.run);

  // (a) overview with binned aggregation.
  const auto spec_a = core::ProjectionSpec::parse(kScriptA);
  const core::ProjectionView view_a(data, spec_a);
  view_a.save_svg(bench::out_path("fig5a_overview.svg"), 900,
                  "Fig. 5a — 73 groups -> 9 partitions (maxBins: 8)");
  std::printf("view (a): ring0 items = %zu (73 groups, maxBins 8)\n",
              view_a.rings()[0].items.size());
  bench::shape_check(view_a.rings()[0].items.size() == 9u,
                     "maxBins: 8 partitions the 73 groups into 9 "
                     "(the count the paper's caption reports)");

  // (b) first-nine-groups detail.
  const auto spec_b = core::ProjectionSpec::parse(kScriptB);
  const core::ProjectionView view_b(data, spec_b);
  view_b.save_svg(bench::out_path("fig5b_detail.svg"), 900,
                  "Fig. 5b — detail of groups 0..8, random-router placement");
  std::printf("view (b): ring0 items = %zu, ring1 items = %zu, ring2 items = %zu\n",
              view_b.rings()[0].items.size(),
              view_b.rings()[1].items.size(),
              view_b.rings()[2].items.size());
  bench::shape_check(view_b.rings()[0].items.size() == 9u,
                     "filter group_id [0,8] keeps exactly 9 groups");
  bench::shape_check(view_b.rings()[1].items.size() == 12u * 11u,
                     "local links aggregate to (rank, local port) cells");
  bench::shape_check(view_b.rings()[1].type == core::PlotType::kHeatmap2D,
                     "color+x+y derives a 2-D heatmap ring");
  bench::shape_check(view_b.rings()[2].type == core::PlotType::kScatter,
                     "4-channel terminal level derives a scatter ring");

  // The saved spec can be reloaded and reapplied (the paper's "save the
  // specification for analyzing another dataset").
  const auto reloaded = core::ProjectionSpec::parse(spec_a.to_script());
  const core::ProjectionView view_a2(data, reloaded);
  bench::shape_check(
      view_a2.rings()[0].items.size() == view_a.rings()[0].items.size(),
      "specs round-trip through the script format");
  return bench::footer();
}
