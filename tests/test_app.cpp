// Experiment-runner and CLI integration tests: the full pipeline from a
// declarative config (or argv) through simulation to files on disk.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "app/cli.hpp"
#include "app/runner.hpp"
#include "core/projection.hpp"
#include "fault/fault.hpp"
#include "metrics/dvr.hpp"

namespace dv::app {
namespace {

namespace fs = std::filesystem;

std::string tmp(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

int cli(std::vector<std::string> args) {
  args.insert(args.begin(), "dragonviz");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return run_cli(static_cast<int>(argv.size()), argv.data());
}

// ----------------------------------------------------------------- runner

TEST(Runner, SingleSyntheticJob) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 0}};
  cfg.window = 2.0e4;
  const auto result = run_experiment(cfg);
  EXPECT_EQ(result.topo.num_terminals(), 72u);
  EXPECT_GT(result.events, 0u);
  EXPECT_GT(result.run.total_injected(), 0.0);
  EXPECT_EQ(result.run.workload, "uniform_random");
  EXPECT_EQ(result.run.placement, "contiguous");
  // All terminals belong to the single job.
  for (const auto& t : result.run.terminals) EXPECT_EQ(t.job, 0);
}

TEST(Runner, AppJobUsesTableIDefaults) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = 4;  // 1,056 terminals, enough for 1,056 >= amg? no:
  // amg default is 1728 ranks, so give explicit ranks for the small net.
  cfg.jobs = {{"amg", 512, placement::Policy::kRandomGroup, 4u << 20}};
  cfg.window = 1.0e5;
  const auto result = run_experiment(cfg);
  EXPECT_EQ(result.placement.terminals[0].size(), 512u);
  EXPECT_NEAR(result.run.total_injected(), 4.0 * (1 << 20), 0.2 * (1 << 20));
}

TEST(Runner, HybridLabel) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"uniform_random", 8, placement::Policy::kRandomRouter, 1 << 18},
              {"nearest_neighbor", 8, placement::Policy::kRandomGroup, 1 << 18}};
  EXPECT_EQ(cfg.placement_label(), "hybrid(random_router,random_group)");
  cfg.window = 2.0e4;
  const auto result = run_experiment(cfg);
  EXPECT_EQ(result.run.placement, "hybrid(random_router,random_group)");
  EXPECT_EQ(result.run.workload, "uniform_random+nearest_neighbor");
  EXPECT_EQ(result.run.job_names.size(), 2u);
}

TEST(Runner, TrafficScaleScalesVolume) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 2 << 20}};
  cfg.window = 2.0e4;
  const auto full = run_experiment(cfg);
  cfg.traffic_scale = 0.5;
  const auto half = run_experiment(cfg);
  EXPECT_NEAR(half.run.total_injected(), full.run.total_injected() * 0.5,
              full.run.total_injected() * 0.15);
}

TEST(Runner, Validation) {
  ExperimentConfig cfg;
  EXPECT_THROW(run_experiment(cfg), Error);  // no jobs
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"bogus_workload", 8, placement::Policy::kContiguous, 1024}};
  EXPECT_THROW(run_experiment(cfg), Error);
  cfg.jobs = {{"uniform_random", 9999, placement::Policy::kContiguous, 1024}};
  EXPECT_THROW(run_experiment(cfg), Error);  // does not fit
  cfg.jobs = {{"uniform_random", 8, placement::Policy::kContiguous, 1024}};
  cfg.traffic_scale = 0.0;
  EXPECT_THROW(run_experiment(cfg), Error);
}

TEST(Runner, ZeroLengthWindowRejected) {
  // Regression: window = 0 used to slip through and inject every message at
  // t = 0; it must be rejected up front with an explanation.
  ExperimentConfig cfg;
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"uniform_random", 8, placement::Policy::kContiguous, 1024}};
  cfg.window = 0.0;
  try {
    (void)run_experiment(cfg);
    FAIL() << "zero-length window was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("window must be positive"),
              std::string::npos)
        << e.what();
  }
  cfg.window = -5.0;
  EXPECT_THROW(run_experiment(cfg), Error);
}

TEST(Runner, FaultPlanFlowsThroughExperiment) {
  ExperimentConfig cfg;
  cfg.dragonfly_p = 2;
  cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 0}};
  cfg.window = 2.0e4;
  cfg.faults = fault::FaultPlan::parse("router:g1.r0@0:15000");
  const auto result = run_experiment(cfg);
  ASSERT_EQ(result.run.router_downtime.size(),
            result.topo.num_routers());
  EXPECT_DOUBLE_EQ(result.run.router_downtime[result.topo.router_id(1, 0)],
                   15000.0);
}

// ----------------------------------------------------------------- CLI

TEST(Cli, SimRenderExportInfoPipeline) {
  const std::string run_path = tmp("dv_cli_run.json");
  const std::string spec_path = tmp("dv_cli_spec.json");
  const std::string svg_path = tmp("dv_cli_view.svg");
  const std::string csv_path = tmp("dv_cli_terms.csv");

  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                 "20000", "--sample-dt", "2000", "--out", run_path}),
            0);
  ASSERT_TRUE(fs::exists(run_path));

  {
    std::ofstream os(spec_path);
    os << R"({ project: "global_link", aggregate: "router_rank",
               vmap: { color: "sat_time", size: "traffic" } })";
  }
  EXPECT_EQ(cli({"render", "--run", run_path, "--spec", spec_path, "--out",
                 svg_path}),
            0);
  ASSERT_TRUE(fs::exists(svg_path));
  EXPECT_GT(fs::file_size(svg_path), 500u);

  EXPECT_EQ(cli({"export", "--run", run_path, "--entity", "terminals",
                 "--out", csv_path}),
            0);
  ASSERT_TRUE(fs::exists(csv_path));

  EXPECT_EQ(cli({"info", "--run", run_path}), 0);

  const std::string ui_path = tmp("dv_cli_ui.svg");
  EXPECT_EQ(cli({"session", "--run", run_path, "--spec", spec_path, "--out",
                 ui_path, "--t0", "0", "--t1", "10000"}),
            0);
  ASSERT_TRUE(fs::exists(ui_path));

  for (const auto& p : {run_path, spec_path, svg_path, csv_path, ui_path}) {
    std::remove(p.c_str());
  }
}

TEST(Cli, CompareProducesSharedScaleSvg) {
  const std::string a = tmp("dv_cli_a.json"), b = tmp("dv_cli_b.json");
  const std::string spec_path = tmp("dv_cli_cmp_spec.json");
  const std::string out = tmp("dv_cli_cmp.svg");
  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--routing",
                 "minimal", "--window", "20000", "--out", a}),
            0);
  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--routing",
                 "adaptive", "--window", "20000", "--out", b}),
            0);
  {
    std::ofstream os(spec_path);
    os << R"({ project: "terminal", aggregate: "workload",
               vmap: { color: "avg_latency", size: "avg_hops" } })";
  }
  EXPECT_EQ(cli({"compare", "--run", a, "--run", b, "--spec", spec_path,
                 "--out", out}),
            0);
  ASSERT_TRUE(fs::exists(out));
  for (const auto& p : {a, b, spec_path, out}) std::remove(p.c_str());
}

TEST(Cli, JobSpecParsing) {
  const std::string run_path = tmp("dv_cli_jobspec.json");
  // workload:ranks:policy:bytes form.
  EXPECT_EQ(cli({"sim", "--p", "2", "--job",
                 "nearest_neighbor:12:random_router:262144", "--window",
                 "20000", "--out", run_path}),
            0);
  const auto run = metrics::RunMetrics::load(run_path);
  EXPECT_EQ(run.placement, "random_router");
  int placed = 0;
  for (const auto& t : run.terminals) placed += (t.job == 0);
  EXPECT_EQ(placed, 12);
  std::remove(run_path.c_str());
}

TEST(Cli, FaultFlagsAndZeroWindow) {
  const std::string run_path = tmp("dv_cli_fault_run.json");
  const std::string plan_path = tmp("dv_cli_fault_plan.txt");
  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                 "20000", "--fault", "link:g0->g1@2000:6000", "--fault",
                 "router:g2.r1@1000:5000", "--out", run_path}),
            0);
  {
    const auto run = metrics::RunMetrics::load(run_path);
    ASSERT_FALSE(run.router_downtime.empty());
    EXPECT_EQ(cli({"info", "--run", run_path}), 0);
  }
  // Same plan via a --faults file; inline --fault specs append to it.
  {
    std::ofstream os(plan_path);
    os << "# test plan\nlink:g0->g1@2000:6000\n";
  }
  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                 "20000", "--faults", plan_path, "--fault",
                 "router:g2.r1@1000:5000", "--out", run_path}),
            0);
  EXPECT_THROW(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                    "20000", "--fault", "bogus", "--out", run_path}),
               Error);
  // Zero-length injection window is rejected at the CLI boundary too.
  EXPECT_THROW(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                    "0", "--out", run_path}),
               Error);
  std::remove(run_path.c_str());
  std::remove(plan_path.c_str());
}

TEST(Cli, TraceRecordReplayPipeline) {
  const std::string trace_path = tmp("dv_cli_trace.dvtr");
  const std::string run_path = tmp("dv_cli_trace_run.json");
  EXPECT_EQ(cli({"trace-record", "--workload", "amg", "--ranks", "64",
                 "--bytes", "2097152", "--window", "50000", "--out",
                 trace_path}),
            0);
  ASSERT_TRUE(fs::exists(trace_path));
  EXPECT_EQ(cli({"trace-replay", "--trace", trace_path, "--p", "2",
                 "--placement", "random_router", "--routing", "adaptive",
                 "--sample-dt", "5000", "--out", run_path}),
            0);
  const auto run = metrics::RunMetrics::load(run_path);
  EXPECT_EQ(run.workload, "amg");
  EXPECT_EQ(run.placement, "random_router");
  EXPECT_TRUE(run.has_time_series());
  EXPECT_GT(run.total_injected(), 1.5e6);
  std::remove(trace_path.c_str());
  std::remove(run_path.c_str());
}

TEST(Cli, StoreAndFocusWorkflow) {
  const std::string run_path = tmp("dv_cli_store_run.json");
  const std::string spec_path = tmp("dv_cli_store_spec.json");
  const std::string svg_path = tmp("dv_cli_focus.svg");
  const std::string store_dir = tmp("dv_cli_store_dir");
  fs::remove_all(store_dir);

  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                 "20000", "--out", run_path}),
            0);
  EXPECT_EQ(cli({"store", "--dir", store_dir, "--action", "add", "--run",
                 run_path, "--name", "probe"}),
            0);
  EXPECT_EQ(cli({"store", "--dir", store_dir}), 0);  // list
  ASSERT_TRUE(fs::exists(fs::path(store_dir) / "probe.json"));

  {
    std::ofstream os(spec_path);
    os << R"({ project: "global_link", aggregate: "group_id", maxBins: 4,
               vmap: { color: "sat_time", size: "traffic" } })";
  }
  EXPECT_EQ(cli({"render", "--run", run_path, "--spec", spec_path,
                 "--focus", "0:0", "--out", svg_path}),
            0);
  ASSERT_TRUE(fs::exists(svg_path));

  EXPECT_EQ(cli({"store", "--dir", store_dir, "--action", "remove",
                 "--name", "probe"}),
            0);
  EXPECT_THROW(cli({"store", "--dir", store_dir, "--action", "bogus"}),
               Error);
  fs::remove_all(store_dir);
  for (const auto& p : {run_path, spec_path, svg_path}) std::remove(p.c_str());
}

TEST(Cli, ReportSingleAndComparison) {
  const std::string a = tmp("dv_cli_rep_a.json"), b = tmp("dv_cli_rep_b.json");
  const std::string spec_path = tmp("dv_cli_rep_spec.json");
  const std::string out = tmp("dv_cli_report.html");
  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                 "20000", "--out", a}),
            0);
  EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--routing",
                 "minimal", "--window", "20000", "--out", b}),
            0);
  {
    std::ofstream os(spec_path);
    os << R"({ project: "global_link", aggregate: "router_rank",
               vmap: { color: "sat_time", size: "traffic" } })";
  }
  EXPECT_EQ(cli({"report", "--run", a, "--spec", spec_path, "--out", out,
                 "--title", "single run"}),
            0);
  EXPECT_GT(fs::file_size(out), 2000u);
  EXPECT_EQ(cli({"report", "--run", a, "--run", b, "--spec", spec_path,
                 "--out", out}),
            0);
  EXPECT_GT(fs::file_size(out), 2000u);
  for (const auto& p : {a, b, spec_path, out}) std::remove(p.c_str());
}

TEST(Cli, TraceRecordValidation) {
  EXPECT_THROW(cli({"trace-record", "--workload", "amg", "--out",
                    tmp("z.dvtr")}),
               Error);  // missing ranks/bytes
  EXPECT_THROW(cli({"trace-replay", "--trace", "/nonexistent.dvtr", "--out",
                    tmp("z.json")}),
               Error);
}

TEST(Cli, SimOutputFormatFollowsTheExtension) {
  const std::string text_path = tmp("dv_cli_fmt_run.json");
  const std::string dvr_path = tmp("dv_cli_fmt_run.dvr");
  for (const auto& out : {text_path, dvr_path}) {
    EXPECT_EQ(cli({"sim", "--p", "2", "--job", "uniform_random", "--window",
                   "20000", "--sample-dt", "2000", "--out", out}),
              0);
  }
  EXPECT_FALSE(metrics::is_dvr_file(text_path));
  EXPECT_TRUE(metrics::is_dvr_file(dvr_path));
  EXPECT_EQ(metrics::run_content_uid(metrics::RunMetrics::load(dvr_path)),
            metrics::run_content_uid(metrics::RunMetrics::load(text_path)));
  std::remove(text_path.c_str());
  std::remove(dvr_path.c_str());
}

/// The message of the Error `fn` throws; empty when it throws none.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, NumbersMustParseWhole) {
  const std::string out = tmp("dv_cli_strict.json");
  const std::string store = tmp("dv_cli_strict_store");
  std::remove(out.c_str());
  fs::remove_all(store);
  struct Case {
    std::vector<std::string> argv;
    std::string flag, token;
  };
  const std::vector<Case> cases = {
      {{"sim", "--p", "3x", "--job", "uniform_random", "--out", out},
       "--p", "3x"},
      {{"sim", "--p", "2", "--scale", "2abc", "--job", "uniform_random",
        "--out", out},
       "--scale", "2abc"},
      {{"sim", "--p", "2", "--window", "inf", "--job", "uniform_random",
        "--out", out},
       "--window", "inf"},
      {{"sweep", "--p", "2", "--scales", "1,x", "--store", store}, "--scales",
       "x"},
      {{"sim", "--p", "2", "--job", "amg:12q", "--out", out}, "--job", "12q"},
      // Counts must be non-negative integers, not truncated or wrapped.
      {{"sim", "--p", "3.5", "--job", "uniform_random", "--out", out}, "--p",
       "3.5"},
      {{"sim", "--p", "2", "--seed", "-1", "--job", "uniform_random",
        "--out", out},
       "--seed", "-1"},
      {{"sim", "--p", "2", "--job", "uniform_random:4:contiguous:1e3z",
        "--out", out},
       "--job", "1e3z"},
  };
  for (const auto& c : cases) {
    const std::string msg = error_of([&] { cli(c.argv); });
    EXPECT_NE(msg.find(c.flag), std::string::npos) << msg;
    EXPECT_NE(msg.find("'" + c.token + "'"), std::string::npos) << msg;
    // A user error, not an internal check: no source location.
    EXPECT_EQ(msg.find(".cpp:"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("src/"), std::string::npos) << msg;
  }
  EXPECT_FALSE(fs::exists(out));
  EXPECT_FALSE(fs::exists(store));
  // Whole tokens still parse, blanks and exponents included.
  EXPECT_EQ(cli({"sim", "--p", " 2 ", "--scale", "5e-1", "--job",
                 "uniform_random:12", "--window", "2e4", "--out", out}),
            0);
  std::remove(out.c_str());
}

TEST(Cli, UnknownAndRepeatedFlagsFailBeforeAnyWork) {
  const std::string out = tmp("dv_cli_flags.json");
  std::remove(out.c_str());
  const std::vector<std::string> base = {"sim", "--p", "2", "--job",
                                         "uniform_random", "--out", out};
  auto with = [&](std::vector<std::string> extra) {
    auto argv = base;
    argv.insert(argv.end(), extra.begin(), extra.end());
    return error_of([&] { cli(argv); });
  };
  // A misspelt flag with a value, valueless at the end, and as --k=v.
  for (const auto& extra : std::vector<std::vector<std::string>>{
           {"--paralel", "4"}, {"--flow-steping"}, {"--paralel=4"}}) {
    const std::string flag = extra[0].substr(0, extra[0].find('='));
    const std::string msg = with(extra);
    EXPECT_NE(msg.find("sim: unknown option " + flag), std::string::npos)
        << msg;
  }
  // Single-value numeric flags reject repeats instead of taking the first.
  EXPECT_NE(with({"--p", "3"}).find("--p given multiple times"),
            std::string::npos);
  EXPECT_NE(with({"--seed", "1", "--seed", "2"}).find("--seed given multiple"),
            std::string::npos);
  EXPECT_FALSE(fs::exists(out));
  // The flag table and the usage text cannot drift: every accepted flag is
  // documented in its subcommand's usage.
  for (const auto& c : cli_commands()) {
    for (const auto& flag : c.flags) {
      const std::string opt = "--" + flag;
      bool found = false;
      for (auto at = c.usage.find(opt); at != std::string::npos && !found;
           at = c.usage.find(opt, at + 1)) {
        const std::size_t end = at + opt.size();
        found = end == c.usage.size() ||
                !(std::isalnum(static_cast<unsigned char>(c.usage[end])) ||
                  c.usage[end] == '-');
      }
      EXPECT_TRUE(found) << c.name << " does not document " << opt;
    }
  }
}

TEST(Cli, UserErrorsCarryNoSourceLocation) {
  const std::vector<std::vector<std::string>> cases = {
      {"sim", "--p", "2", "--job", "uniform_random", "--window", "0", "--out",
       tmp("dv_cli_loc.json")},
      {"info", "--run", "/nonexistent/dv_missing_run.json"},
      {"render", "--run", "/nonexistent/dv_missing_run.dvr", "--spec",
       "preset:fig4", "--out", tmp("dv_cli_loc.svg")},
      {"sim", "--p", "2", "--job", "uniform_random", "--parallel", "0",
       "--out", tmp("dv_cli_loc.json")},
  };
  for (const auto& argv : cases) {
    const std::string msg = error_of([&] { cli(argv); });
    EXPECT_FALSE(msg.empty()) << argv[0];
    EXPECT_EQ(msg.find(".cpp:"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("src/"), std::string::npos) << msg;
  }
}

TEST(Cli, EverySubcommandHasHelp) {
  for (const auto& c : cli_commands()) {
    for (const char* flag : {"--help", "-h"}) {
      testing::internal::CaptureStdout();
      const int rc = cli({c.name, flag});
      const std::string printed = testing::internal::GetCapturedStdout();
      EXPECT_EQ(rc, 0) << c.name << " " << flag;
      EXPECT_NE(printed.find(c.usage), std::string::npos) << c.name;
    }
  }
}

TEST(Cli, ErrorsAreReported) {
  EXPECT_THROW(cli({"frobnicate"}), Error);
  EXPECT_THROW(cli({"sim", "--p", "2", "--out", tmp("x.json")}), Error);
  EXPECT_THROW(cli({"sim", "--p"}), Error);             // missing value
  EXPECT_THROW(cli({"sim", "p", "2"}), Error);          // not an option
  EXPECT_THROW(cli({"render", "--run", "/nonexistent.json", "--spec",
                    "/nonexistent.json", "--out", tmp("y.svg")}),
               Error);
  EXPECT_EQ(cli({"help"}), 0);
}

}  // namespace
}  // namespace dv::app
