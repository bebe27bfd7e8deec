// design_point: simulate one Fig. 4/13-scale design point and view it —
// run_experiment, the text run file `dragonviz sim --out run.json` writes,
// RunMetrics::load, DataSet, the fig4 projection and its SVG.
#include <fstream>
#include <memory>

#include "core/datatable.hpp"
#include "core/presets.hpp"
#include "core/projection.hpp"
#include "metrics/dvr.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dv;

app::ExperimentConfig design_point_config(std::uint64_t seed) {
  app::ExperimentConfig cfg;
  cfg.dragonfly_p = 6;  // 73 groups x 12 routers x 6 terminals = 5,256
  // Each application at its default size and volume, contiguously placed,
  // over the default 2 ms injection window: what `dragonviz sim --p 6
  // --job amg --job amr_boxlib --job minife --sample-dt 20000` runs.
  for (const char* app : {"amg", "amr_boxlib", "minife"}) {
    cfg.jobs.push_back({app, 0, placement::Policy::kContiguous, 0});
  }
  cfg.routing = routing::Algo::kAdaptive;
  cfg.sample_dt = 20000.0;
  cfg.seed = seed;
  cfg.parallel = 1;
  cfg.backend = app::Backend::kPacket;
  return cfg;
}

namespace {

struct OpResult {
  bool ok = true;
  std::uint64_t uid = 0;
  std::uint64_t events = 0;
  double setup_s = 0.0;
  double ms = 0.0;
};

OpResult one_op(const app::ExperimentConfig& cfg, const std::string& dir,
                Tracer* tr, std::uint64_t op, Outcome& out) {
  OpResult r;
  const std::string run_path = dir + "/run.json";
  obs::reset();  // the packet counters below are per experiment
  app::ExperimentResult res;
  std::unique_ptr<metrics::RunMetrics> run;
  std::unique_ptr<core::DataSet> data;
  std::unique_ptr<core::ProjectionView> view;
  const double t0 = now_s();
  {
    ScopedSpan root(tr, "op.design_point", op);
    {
      ScopedSpan s(tr, "app.run_experiment", op);
      const double a = now_s();
      res = app::run_experiment(cfg);
      const double b = now_s();
      r.setup_s = phase_seconds(res.profile.phases, "setup");
      if (tr) {
        tr->record("app.setup", a, a + r.setup_s, s.id(), op);
        tr->record("netsim.run", b - res.wall_seconds, b, s.id(), op);
      }
    }
    {
      ScopedSpan s(tr, "metrics.save", op);
      res.run.save(run_path);
    }
    {
      ScopedSpan s(tr, "metrics.load", op);
      run = std::make_unique<metrics::RunMetrics>(
          metrics::RunMetrics::load(run_path));
    }
    {
      ScopedSpan s(tr, "core.dataset", op);
      data = std::make_unique<core::DataSet>(*run);
    }
    {
      ScopedSpan s(tr, "core.projection", op);
      view = std::make_unique<core::ProjectionView>(*data,
                                                    core::preset("fig4"));
    }
    {
      ScopedSpan s(tr, "core.svg", op);
      std::ofstream(dir + "/fig4.svg")
          << view->to_svg(800, run->workload + " / " + run->routing);
    }
  }
  r.ms = (now_s() - t0) * 1e3;

  r.uid = metrics::run_content_uid(*run);
  r.events = res.events;
  const std::uint64_t injected =
      res.profile.counter_value("net.packets_injected");
  if (injected == 0 ||
      res.profile.counter_value("net.packets_delivered") != injected ||
      run->total_packets_finished() != injected) {
    out.fail("design_point op " + std::to_string(op) +
             ": not every injected packet finished");
    r.ok = false;
  }
  if (view->rings().size() != 3) {
    out.fail("design_point op " + std::to_string(op) +
             ": fig4 view does not have 3 rings");
    r.ok = false;
  }
  return r;
}

}  // namespace

Outcome run_design_point(const Options& opt, Tracer& tracer) {
  Outcome out;
  const auto cfg = design_point_config(opt.seed);
  std::uint64_t first_uid = 0;  // of the first successful op

  std::vector<std::uint64_t> traced_ops;
  std::vector<std::int64_t> roots;
  std::uint64_t events = 0;
  const double start = now_s();
  for (std::uint64_t op = 1;
       op <= 3 || now_s() - start < opt.seconds; ++op) {
    // Traced runs alternate traced and untraced ops, so the difference
    // between the two medians is the tracing overhead.
    const bool traced = opt.trace && op % 2 == 1;
    const std::size_t first_span = tracer.size();
    ++out.attempted;
    OpResult r;
    try {
      r = one_op(cfg, opt.out_dir, traced ? &tracer : nullptr, op, out);
    } catch (const std::exception& e) {
      out.fail("design_point op " + std::to_string(op) + ": " + e.what());
      r.ok = false;
    }
    if (r.ok && first_uid == 0) first_uid = r.uid;
    if (r.ok && r.uid != first_uid) {
      out.fail("design_point op " + std::to_string(op) +
               ": run content uid differs from the first op's");
      r.ok = false;
    }
    if (!r.ok) {
      ++out.failed;
      continue;
    }
    events = r.events;
    if (traced) {
      traced_ops.push_back(op);
      roots.push_back(static_cast<std::int64_t>(first_span));
      out.traced_op_ms.push_back(r.ms);
    } else {
      out.op_ms.push_back(r.ms);
      out.setup_s.push_back(r.setup_s);
    }
  }
  out.loop_seconds = now_s() - start;
  out.peak_rss_mb = peak_rss_mb();
  out.disk_bytes = static_cast<double>(disk_bytes(opt.out_dir + "/run.json"));

  if (opt.trace && !traced_ops.empty()) {
    const auto spans = tracer.spans();
    auto& L = out.layers;
    L["app.setup_ms"] = layer_ms(spans, "app.setup", traced_ops);
    L["netsim.run_ms"] = layer_ms(spans, "netsim.run", traced_ops);
    L["netsim.events"] = static_cast<double>(events);
    L["netsim.ns_per_event"] =
        events ? L["netsim.run_ms"] * 1e6 / static_cast<double>(events) : 0;
    L["metrics.save_ms"] = layer_ms(spans, "metrics.save", traced_ops);
    L["metrics.load_ms"] = layer_ms(spans, "metrics.load", traced_ops);
    L["metrics.run_bytes"] = out.disk_bytes;
    L["core.dataset_ms"] = layer_ms(spans, "core.dataset", traced_ops);
    L["core.projection_ms"] = layer_ms(spans, "core.projection", traced_ops);
    L["core.svg_ms"] = layer_ms(spans, "core.svg", traced_ops);
    L["trace.coverage_min"] = min_coverage(spans, roots);
  }
  return out;
}

}  // namespace perfbench
