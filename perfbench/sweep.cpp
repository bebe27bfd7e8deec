// sweep: a design-space grid through app::run_sweep on the flow backend at
// DF(5) — {uniform_random, transpose, amg, minife} x {minimal, adaptive} x
// scale 2 with 20 us sampling — into a packed RunStore plus a comparison
// report over all eight runs.
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "app/sweep.hpp"
#include "core/comparison.hpp"
#include "core/presets.hpp"
#include "core/report.hpp"
#include "routing/routing.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dv;

namespace {

app::SweepConfig sweep_config(const Options& opt) {
  app::SweepConfig cfg;
  cfg.base.dragonfly_p = 5;
  cfg.base.backend = app::Backend::kFlow;
  cfg.base.sample_dt = 20000.0;
  cfg.base.seed = opt.seed;
  cfg.workloads = {"uniform_random", "transpose", "amg", "minife"};
  cfg.routings = {"minimal", "adaptive"};
  cfg.scales = {2.0};
  cfg.store_dir = opt.out_dir + "/store";
  cfg.format = metrics::StoreFormat::kPacked;
  cfg.report_path = opt.out_dir + "/report.html";
  return cfg;
}

struct OpResult {
  std::vector<std::uint64_t> uids;  ///< grid order
  std::vector<std::string> names;
  app::FlowTelemetry flow;  ///< summed over the points
  double setup_s = 0.0;
  double ms = 0.0;
};

void add_telemetry(app::FlowTelemetry& sum, const app::FlowTelemetry& t) {
  sum.epochs += t.epochs;
  sum.solves += t.solves;
  sum.full_solves += t.full_solves;
  sum.incremental_solves += t.incremental_solves;
  sum.solver_rounds += t.solver_rounds;
  sum.drain_events += t.drain_events;
}

/// The operation as users run it: one run_sweep call. Set-up time is the
/// "setup" phase run_experiment records for every point.
OpResult sweep_op(const app::SweepConfig& cfg) {
  OpResult r;
  obs::reset();
  const double t0 = now_s();
  const app::SweepResult res = app::run_sweep(cfg);
  r.ms = (now_s() - t0) * 1e3;
  r.setup_s = phase_seconds(obs::snapshot().phases, "setup");
  for (const auto& p : res.points) {
    r.uids.push_back(p.uid);
    r.names.push_back(p.name);
    add_telemetry(r.flow, p.flow);
  }
  return r;
}

/// run_sweep's public calls, in its order, each under a span when `tr` is
/// set (run_sweep itself has no layer boundaries to trace). A traced run
/// times this same code with and without a tracer, so the difference of
/// the two medians is the cost of the spans alone.
OpResult replayed_sweep_op(const app::SweepConfig& cfg, Tracer* tr,
                           std::uint64_t op) {
  OpResult r;
  obs::reset();
  const double t0 = now_s();
  {
    ScopedSpan root(tr, "op.sweep", op);
    metrics::RunStore store(cfg.store_dir);
    std::vector<double> end_times;
    for (const auto& workload : cfg.workloads) {
      for (const auto& routing : cfg.routings) {
        for (const double scale : cfg.scales) {
          app::ExperimentConfig point = cfg.base;
          point.jobs = {app::JobSpec{workload, 0,
                                     placement::Policy::kContiguous, 0}};
          point.routing = routing::algo_from_string(routing);
          point.traffic_scale = scale;
          app::ExperimentResult res;
          {
            ScopedSpan s(tr, "app.run_experiment", op);
            const double a = now_s();
            res = app::run_experiment(point);
            const double b = now_s();
            // The obs "setup" phase accumulates over the op's points.
            const double total = phase_seconds(res.profile.phases, "setup");
            if (tr) {
              tr->record("app.setup", a, a + total - r.setup_s, s.id(), op);
              tr->record("flow.run", b - res.wall_seconds, b, s.id(), op);
            }
            r.setup_s = total;
          }
          const std::string name =
              app::sweep_point_name(workload, routing, scale, cfg.base.backend);
          {
            ScopedSpan s(tr, "metrics.store_add", op);
            if (store.contains(name)) store.remove(name);
            if (store.add(res.run, name, cfg.format) != name) {
              throw std::runtime_error("sweep point name collided: " + name);
            }
          }
          r.uids.push_back(store.info(name).uid);
          r.names.push_back(name);
          end_times.push_back(res.run.end_time);
          add_telemetry(r.flow, res.flow);
        }
      }
    }
    std::vector<std::unique_ptr<metrics::RunMetrics>> runs;
    std::vector<std::unique_ptr<core::DataSet>> datasets;
    std::vector<const core::DataSet*> ptrs;
    for (const auto& name : r.names) {
      {
        ScopedSpan s(tr, "metrics.store_load", op);
        runs.push_back(
            std::make_unique<metrics::RunMetrics>(store.load(name)));
      }
      ScopedSpan s(tr, "core.dataset", op);
      datasets.push_back(std::make_unique<core::DataSet>(*runs.back()));
      ptrs.push_back(datasets.back().get());
    }
    std::unique_ptr<core::ComparisonView> cmp;
    {
      ScopedSpan s(tr, "core.comparison", op);
      cmp = std::make_unique<core::ComparisonView>(
          ptrs, core::preset_from_ref(cfg.report_spec), r.names);
    }
    ScopedSpan s(tr, "core.report", op);
    core::ReportBuilder report(cfg.report_title);
    report.note("Sweep grid",
                std::to_string(r.names.size()) + " points (" +
                    std::to_string(cfg.workloads.size()) + " workloads x " +
                    std::to_string(cfg.routings.size()) + " routings x " +
                    std::to_string(cfg.scales.size()) + " scales), backend=" +
                    app::to_string(cfg.base.backend) +
                    ", store=" + cfg.store_dir);
    std::string uid_lines;
    for (std::size_t i = 0; i < r.names.size(); ++i) {
      uid_lines += r.names[i] + " uid=" + std::to_string(r.uids[i]) +
                   " end=" + std::to_string(end_times[i]) + " ns; ";
    }
    report.note("Stored runs", uid_lines);
    report.comparison(*cmp, "All sweep points under shared scales");
    report.save(cfg.report_path);
  }
  r.ms = (now_s() - t0) * 1e3;
  return r;
}

}  // namespace

Outcome run_sweep(const Options& opt, Tracer& tracer) {
  Outcome out;
  const auto cfg = sweep_config(opt);
  std::vector<std::uint64_t> first_uids;  // of the first successful op

  std::vector<std::uint64_t> traced_ops;
  std::vector<std::int64_t> roots;
  app::FlowTelemetry flow;
  const double start = now_s();
  // A traced run starts with one run_sweep call, whose uids the replayed
  // ops must reproduce. Then it alternates traced and untraced replays,
  // at least two of each.
  const std::uint64_t min_ops = opt.trace ? 5 : 3;
  for (std::uint64_t op = 1;
       op <= min_ops || now_s() - start < opt.seconds; ++op) {
    const bool reference = opt.trace && op == 1;
    const bool traced = opt.trace && op % 2 == 0;
    const std::size_t first_span = tracer.size();
    ++out.attempted;
    const std::string tag = "sweep op " + std::to_string(op) + ": ";
    bool ok = true;
    OpResult r;
    try {
      std::filesystem::remove(cfg.report_path);
      r = opt.trace && !reference
              ? replayed_sweep_op(cfg, traced ? &tracer : nullptr, op)
              : sweep_op(cfg);
      // Output checks: the same 8 content uids in every op, an index
      // (re-read from disk) listing every point, and a written report.
      if (first_uids.empty()) first_uids = r.uids;
      if (r.uids.size() != 8 || r.uids != first_uids) {
        out.fail(tag + "point content uids differ from the first op's");
        ok = false;
      }
      const metrics::RunStore reopened(cfg.store_dir);
      for (const auto& name : r.names) {
        if (!reopened.contains(name)) {
          out.fail(tag + "store index lacks " + name);
          ok = false;
        }
      }
      if (disk_bytes(cfg.report_path) == 0) {
        out.fail(tag + "comparison report not written");
        ok = false;
      }
    } catch (const std::exception& e) {
      out.fail(tag + e.what());
      ok = false;
    }
    if (!ok) {
      ++out.failed;
      continue;
    }
    flow = r.flow;
    if (reference) continue;
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
  out.disk_bytes = static_cast<double>(disk_bytes(cfg.store_dir));

  if (opt.trace && !traced_ops.empty()) {
    const auto spans = tracer.spans();
    auto& L = out.layers;
    L["app.setup_ms"] = layer_ms(spans, "app.setup", traced_ops);
    L["flow.run_ms"] = layer_ms(spans, "flow.run", traced_ops);
    L["flow.epochs"] = static_cast<double>(flow.epochs);
    L["flow.solves"] = static_cast<double>(flow.solves);
    L["flow.full_solves"] = static_cast<double>(flow.full_solves);
    L["flow.incremental_solves"] =
        static_cast<double>(flow.incremental_solves);
    L["flow.solver_rounds"] = static_cast<double>(flow.solver_rounds);
    L["flow.drain_events"] = static_cast<double>(flow.drain_events);
    L["metrics.store_add_ms"] = layer_ms(spans, "metrics.store_add", traced_ops);
    L["metrics.store_load_ms"] =
        layer_ms(spans, "metrics.store_load", traced_ops);
    L["metrics.store_bytes"] = out.disk_bytes;
    L["core.dataset_ms"] = layer_ms(spans, "core.dataset", traced_ops);
    L["core.comparison_ms"] = layer_ms(spans, "core.comparison", traced_ops);
    L["core.report_ms"] = layer_ms(spans, "core.report", traced_ops);
    L["trace.coverage_min"] = min_coverage(spans, roots);
  }
  return out;
}

}  // namespace perfbench
