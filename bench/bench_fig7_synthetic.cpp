// Figure 7 — Nearest-neighbour vs. uniform-random synthetic traffic on the
// 5,256-terminal Dragonfly under adaptive routing.
//
// Paper: nearest neighbour drives high usage of *specific* global links and
// saturation on *specific* local links (with light non-minimal spill onto
// other local links from adaptive routing); uniform random loads every
// bundled link about equally and leaves links unsaturated.
#include <cstdio>
#include <cmath>

#include "bench_common.hpp"
#include "util/stats.hpp"

namespace {

dv::metrics::RunMetrics run_synthetic(const std::string& pattern) {
  dv::app::ExperimentConfig cfg;
  cfg.dragonfly_p = 6;
  dv::app::JobSpec job;
  job.workload = pattern;
  job.policy = dv::placement::Policy::kContiguous;
  cfg.jobs = {job};
  cfg.routing = dv::routing::Algo::kAdaptive;
  // ~1.3 GB/s offered per terminal: each router's six NN flows share one
  // local link (6x oversubscribed) while uniform random spreads the same
  // load far below any link's capacity.
  cfg.synthetic_bytes_per_rank = 128 * 1024;
  cfg.window = 1.0e5;
  cfg.seed = 7;
  return dv::app::run_experiment(cfg).run;
}

/// Coefficient of variation of per-link traffic (0 = perfectly balanced).
double traffic_cv(const std::vector<dv::metrics::LinkMetrics>& links) {
  dv::Accumulator acc;
  for (const auto& l : links) acc.add(l.traffic);
  return acc.mean() > 0 ? acc.stddev() / acc.mean() : 0.0;
}

}  // namespace

int main() {
  using namespace dv;
  bench::banner(
      "Figure 7 — nearest neighbour vs uniform random (5,256 terminals)",
      "NN saturates specific local/terminal links; UR is load-balanced with "
      "no local-link saturation");

  const auto nn = run_synthetic("nearest_neighbor");
  const auto ur = run_synthetic("uniform_random");

  const auto nn_l = bench::link_stats(nn.local_links);
  const auto ur_l = bench::link_stats(ur.local_links);
  const auto nn_g = bench::link_stats(nn.global_links);
  const auto ur_g = bench::link_stats(ur.global_links);
  const auto nn_t = bench::term_stats(nn);
  const auto ur_t = bench::term_stats(ur);

  std::printf("%-28s %16s %16s\n", "", "nearest-neighbor", "uniform-random");
  auto row = [](const char* label, double a, double b) {
    std::printf("%-28s %16.4g %16.4g\n", label, a, b);
  };
  row("local links used", nn_l.used, ur_l.used);
  row("local traffic CV", traffic_cv(nn.local_links), traffic_cv(ur.local_links));
  row("local sat total (us)", nn_l.sat / 1e3, ur_l.sat / 1e3);
  row("peak local sat (us)", nn_l.peak_sat / 1e3, ur_l.peak_sat / 1e3);
  row("global links used", nn_g.used, ur_g.used);
  row("global traffic CV", traffic_cv(nn.global_links), traffic_cv(ur.global_links));
  row("global sat total (us)", nn_g.sat / 1e3, ur_g.sat / 1e3);
  row("terminal sat total (us)", nn_t.sat / 1e3, ur_t.sat / 1e3);

  // Render the paper's side-by-side projection views under shared scales.
  const core::DataSet d_nn(nn), d_ur(ur);
  const auto spec = core::SpecBuilder()
                        .level(core::Entity::kLocalLink)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .colors({"white", "steelblue"})
                        .level(core::Entity::kGlobalLink)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .colors({"white", "purple"})
                        .level(core::Entity::kTerminal)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .colors({"white", "crimson"})
                        .ribbons(core::Entity::kLocalLink, "router_rank")
                        .build();
  const core::ComparisonView cmp({&d_nn, &d_ur}, spec,
                                 {"Nearest Neighbor", "Uniform Random"});
  cmp.save_svg(bench::out_path("fig7_synthetic.svg"));

  bench::shape_check(
      traffic_cv(nn.local_links) > 2.0 * traffic_cv(ur.local_links),
      "NN concentrates local traffic on specific links; UR balances");
  bench::shape_check(nn_l.peak_sat > 10.0 * std::max(1.0, ur_l.peak_sat),
                     "NN saturates specific local links, UR does not");
  bench::shape_check(ur_l.sat < nn_l.sat,
                     "UR has (near-)zero local link saturation");
  // Minimal NN needs roughly one local link per router (the direct
  // next-router link plus group-exit feeds); adaptive proxy routes light
  // up additional local links while most of the fabric stays dark.
  const double n_routers =
      static_cast<double>(nn.groups) * nn.routers_per_group;
  bench::shape_check(nn_l.used > 1.5 * n_routers &&
                         nn_l.used < 0.5 * static_cast<double>(nn.local_links.size()),
                     "adaptive routing spills light NN traffic onto other "
                     "local links (non-minimal routes)");
  bench::shape_check(
      traffic_cv(ur.global_links) < 0.3,
      "UR loads the global links about equally (same ribbon color)");
  return bench::footer();
}
