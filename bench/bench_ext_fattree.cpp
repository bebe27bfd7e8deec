// Extension — Fat Tree through the dragonviz VA pipeline (Sec. VI).
//
// The paper's future work: "extend our system to support analysis and
// exploration of other network topologies, such as Fat Tree and Slim Fly".
// This bench runs uniform-random and incast workloads on a k=8 fat tree
// (128 hosts), maps the results into the standard entity tables
// (pods = groups, edge/agg switches = routers, cores = pseudo-pods), and
// renders the same radial projection views used for the Dragonfly.
#include <cstdio>

#include "bench_common.hpp"
#include "netsim/fattree_network.hpp"
#include "util/stats.hpp"
#include "workload/workload.hpp"

namespace {

dv::metrics::RunMetrics run_ft(const char* pattern, std::uint64_t seed) {
  const dv::topo::FatTree topo(8);
  dv::netsim::FatTreeNetwork net(topo, {}, seed);
  net.set_labels(pattern, "contiguous", {pattern});
  net.set_jobs(std::vector<std::int32_t>(topo.num_hosts(), 0));
  dv::workload::Config cfg;
  cfg.ranks = topo.num_hosts();
  cfg.total_bytes = 64ull << 20;
  cfg.window = 2.0e5;
  cfg.seed = seed;
  for (const auto& m : dv::workload::generate(pattern, cfg)) {
    net.add_message({m.src_rank, m.dst_rank, m.bytes, m.time, 0});
  }
  return net.run();
}

double cv(const std::vector<dv::metrics::LinkMetrics>& links) {
  dv::Accumulator acc;
  for (const auto& l : links) acc.add(l.traffic);
  return acc.mean() > 0 ? acc.stddev() / acc.mean() : 0.0;
}

}  // namespace

int main() {
  using namespace dv;
  bench::banner(
      "Extension — Fat Tree via the dragonviz VA layer (128 hosts, k=8)",
      "future work of Sec. VI: other topologies through the same entity "
      "tables, aggregation and radial views");

  const auto ur = run_ft("uniform_random", 3);
  const auto bis = run_ft("bisection", 3);

  std::printf("%-24s %14s %14s\n", "", "uniform-random", "bisection");
  auto row = [](const char* label, double a, double b) {
    std::printf("%-24s %14.4g %14.4g\n", label, a, b);
  };
  const auto ur_g = bench::link_stats(ur.global_links);
  const auto bis_g = bench::link_stats(bis.global_links);
  row("core-link traffic (MB)", ur_g.traffic / 1e6, bis_g.traffic / 1e6);
  row("core-link traffic CV", cv(ur.global_links), cv(bis.global_links));
  row("core-link sat (us)", ur_g.sat / 1e3, bis_g.sat / 1e3);
  const auto ur_t = bench::term_stats(ur);
  const auto bis_t = bench::term_stats(bis);
  row("avg hops", ur_t.avg_hops, bis_t.avg_hops);
  row("avg latency (ns)", ur_t.avg_latency, bis_t.avg_latency);

  bench::shape_check(cv(ur.global_links) < 0.6,
                     "ECMP balances uniform-random load over the core");
  bench::shape_check(bis_t.avg_hops > 4.5,
                     "bisection traffic crosses the core (5-switch paths)");
  bench::shape_check(ur_t.avg_hops > 3.0 && ur_t.avg_hops < 5.0,
                     "uniform random mixes 1/3/5-switch paths");

  // The same VA pipeline renders the fat tree.
  const core::DataSet data(ur);
  const auto spec = core::SpecBuilder()
                        .level(core::Entity::kGlobalLink)
                        .aggregate({"group_id"})
                        .color("sat_time")
                        .size("traffic")
                        .colors({"white", "purple"})
                        .level(core::Entity::kTerminal)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .colors({"white", "steelblue"})
                        .ribbons(core::Entity::kLocalLink, "group_id")
                        .build();
  const core::ProjectionView view(data, spec);
  view.save_svg(bench::out_path("ext_fattree_radial.svg"), 800,
                "k=8 fat tree, uniform random, via the dragonviz VA layer");
  std::printf("radial view: %zu rings, %zu ribbons (pods as groups)\n",
              view.rings().size(), view.ribbons().size());
  bench::shape_check(!view.rings()[0].items.empty() &&
                         !view.ribbons().empty(),
                     "fat-tree runs flow through the unchanged VA pipeline");
  return bench::footer();
}
