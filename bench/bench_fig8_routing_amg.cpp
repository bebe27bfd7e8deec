// Figure 8 — Minimal vs. adaptive routing for AMG on the 2,550-terminal
// Dragonfly, contiguous placement.
//
// Paper: "adaptive routing results in high intra-group traffic while
// having much lower saturation time for all type of network links".
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace dv;
  bench::banner("Figure 8 — minimal vs adaptive routing, AMG on 2,550 nodes",
                "adaptive raises local-link usage/traffic and lowers "
                "saturation on every link class");

  const auto mmin =
      app::run_experiment(bench::paper_df5_app("amg", routing::Algo::kMinimal))
          .run;
  const auto madp =
      app::run_experiment(bench::paper_df5_app("amg", routing::Algo::kAdaptive))
          .run;

  const auto lmin = bench::link_stats(mmin.local_links);
  const auto ladp = bench::link_stats(madp.local_links);
  const auto gmin = bench::link_stats(mmin.global_links);
  const auto gadp = bench::link_stats(madp.global_links);
  const auto tmin = bench::term_stats(mmin);
  const auto tadp = bench::term_stats(madp);

  std::printf("%-28s %14s %14s\n", "", "minimal", "adaptive");
  auto row = [](const char* label, double a, double b) {
    std::printf("%-28s %14.4g %14.4g\n", label, a, b);
  };
  row("local links used", lmin.used, ladp.used);
  row("local traffic (MB)", lmin.traffic / 1e6, ladp.traffic / 1e6);
  row("local sat (us)", lmin.sat / 1e3, ladp.sat / 1e3);
  row("global traffic (MB)", gmin.traffic / 1e6, gadp.traffic / 1e6);
  row("global sat (us)", gmin.sat / 1e3, gadp.sat / 1e3);
  row("terminal sat (us)", tmin.sat / 1e3, tadp.sat / 1e3);
  row("avg packet latency (ns)", tmin.avg_latency, tadp.avg_latency);
  row("avg hops", tmin.avg_hops, tadp.avg_hops);
  row("completion time (us)", mmin.end_time / 1e3, madp.end_time / 1e3);

  const core::DataSet d_min(mmin), d_adp(madp);
  const auto spec = core::SpecBuilder()
                        .level(core::Entity::kGlobalLink)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .size("traffic")
                        .colors({"white", "purple"})
                        .level(core::Entity::kLocalLink)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .colors({"white", "steelblue"})
                        .level(core::Entity::kTerminal)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .colors({"white", "crimson"})
                        .ribbons(core::Entity::kLocalLink, "router_rank")
                        .build();
  core::ComparisonView({&d_min, &d_adp}, spec,
                       {"Minimal Routing", "Adaptive Routing"})
      .save_svg(bench::out_path("fig8_routing_amg.svg"));

  bench::shape_check(ladp.used > lmin.used && ladp.traffic > lmin.traffic,
                     "adaptive raises intra-group (local link) usage");
  bench::shape_check(ladp.sat < lmin.sat,
                     "adaptive lowers local link saturation");
  bench::shape_check(tadp.sat < tmin.sat,
                     "adaptive lowers terminal link saturation");
  bench::shape_check(tadp.avg_latency < tmin.avg_latency,
                     "adaptive lowers AMG packet latency");
  return bench::footer();
}
