// Ablation — aggregated radial encoding vs the matrix-view baseline.
//
// The paper's Sec. IV-B1 argues that matrix views (the common encoding for
// communication data) do not scale to large hierarchical networks, while
// hierarchical aggregation keeps the visual-item count bounded. This bench
// quantifies that: for the canonical dragonfly family, it counts the
// visual items each encoding must draw for the same router-level traffic
// data, and renders both for a small network.
#include <cstdio>
#include <fstream>

#include "bench_common.hpp"
#include "core/matrix_view.hpp"

namespace {

dv::metrics::RunMetrics quick_run(std::uint32_t p) {
  dv::app::ExperimentConfig cfg;
  cfg.dragonfly_p = p;
  dv::app::JobSpec job;
  job.workload = "uniform_random";
  job.policy = dv::placement::Policy::kContiguous;
  job.bytes = 8u << 20;  // tiny: this bench measures encodings, not load
  cfg.jobs = {job};
  cfg.window = 5.0e4;
  cfg.seed = 3;
  return dv::app::run_experiment(cfg).run;
}

}  // namespace

int main() {
  using namespace dv;
  bench::banner(
      "Ablation — aggregated radial views vs matrix views",
      "direct visualization of the topology does not scale; hierarchical "
      "aggregation keeps the item count bounded (Sec. II-C / IV)");

  const auto spec = core::SpecBuilder()
                        .level(core::Entity::kGlobalLink)
                        .aggregate({"router_rank"})
                        .color("sat_time")
                        .size("traffic")
                        .level(core::Entity::kTerminal)
                        .aggregate({"router_rank", "router_port"})
                        .color("sat_time")
                        .ribbons(core::Entity::kLocalLink, "router_rank")
                        .build();

  std::printf("%4s %10s %10s | %16s %16s %8s\n", "p", "routers",
              "terminals", "matrix cells", "radial items", "ratio");
  std::vector<double> matrix_items, radial_items;
  for (std::uint32_t p = 2; p <= 6; ++p) {
    const auto run = quick_run(p);
    const core::DataSet data(run);
    const core::MatrixView matrix(data, core::Entity::kLocalLink, "router");
    const core::ProjectionView radial(data, spec);
    std::size_t items = radial.ribbons().size() + radial.arcs().size();
    for (const auto& ring : radial.rings()) items += ring.items.size();
    matrix_items.push_back(static_cast<double>(matrix.visual_items()));
    radial_items.push_back(static_cast<double>(items));
    std::printf("%4u %10u %10u | %16zu %16zu %8.0f\n", p,
                run.groups * run.routers_per_group,
                run.groups * run.routers_per_group * run.terminals_per_router,
                matrix.visual_items(), items,
                static_cast<double>(matrix.visual_items()) /
                    static_cast<double>(items));

    if (p == 3) {
      std::ofstream os(bench::out_path("ablation_matrix_p3.svg"));
      os << matrix.to_svg(700, "router-to-router local traffic (matrix baseline)");
      radial.save_svg(bench::out_path("ablation_radial_p3.svg"), 700,
                      "same data, aggregated radial view");
    }
  }

  // Growth rates: matrix is quadratic in routers, the aggregated radial
  // view is bounded by the aggregation arity (grows ~linearly in a).
  const double matrix_growth = matrix_items.back() / matrix_items.front();
  const double radial_growth = radial_items.back() / radial_items.front();
  std::printf("growth p=2 -> p=6: matrix %.0fx, radial %.1fx\n",
              matrix_growth, radial_growth);
  bench::shape_check(matrix_growth > 20.0 * radial_growth,
                     "matrix item count explodes quadratically while the "
                     "aggregated radial view stays near-constant");

  // The matrix renderer itself refuses unreadable dimensions — the
  // scalability wall the paper describes.
  const auto big = quick_run(6);
  const core::DataSet big_data(big);
  const core::MatrixView big_matrix(big_data, core::Entity::kLocalLink,
                                    "router");
  bool refused = false;
  try {
    (void)big_matrix.to_svg(700, "", 512);
  } catch (const Error&) {
    refused = true;
  }
  bench::shape_check(refused,
                     "876-router matrix exceeds the readable-cell budget; "
                     "the aggregated view renders it comfortably");
  core::ProjectionView(big_data, spec)
      .save_svg(bench::out_path("ablation_radial_p6.svg"), 700,
                "5,256-terminal network, aggregated radial view");
  return bench::footer();
}
