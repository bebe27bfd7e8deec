#include "app/runner.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "flow/flow.hpp"
#include "util/str.hpp"
#include "workload/workload.hpp"

namespace dv::app {

Backend backend_from_string(const std::string& name) {
  const std::string n = to_lower(trim(name));
  if (n == "packet" || n == "netsim" || n == "pdes") return Backend::kPacket;
  if (n == "flow" || n == "fluid") return Backend::kFlow;
  throw Error("unknown backend: " + name + " (expected packet|flow)");
}

std::string to_string(Backend b) {
  return b == Backend::kFlow ? "flow" : "packet";
}

namespace {

bool is_application(const std::string& name) {
  return name == "amg" || name == "amr_boxlib" || name == "minife";
}

}  // namespace

std::string ExperimentConfig::placement_label() const {
  DV_REQUIRE(!jobs.empty(), "experiment has no jobs");
  bool uniform = true;
  for (const auto& j : jobs) {
    if (j.policy != jobs[0].policy) uniform = false;
  }
  if (uniform) return placement::to_string(jobs[0].policy);
  std::string label = "hybrid(";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i) label += ",";
    label += placement::to_string(jobs[i].policy);
  }
  return label + ")";
}

core::DataSet load_run_dataset(const std::string& path) {
  std::unique_ptr<metrics::RunMetrics> run;
  {
    obs::ScopedPhase phase("load");
    run = std::make_unique<metrics::RunMetrics>(metrics::RunMetrics::load(path));
  }
  obs::ScopedPhase phase("dataset");
  return core::DataSet(*run);
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  DV_REQUIRE(!cfg.jobs.empty(), "experiment has no jobs");
  DV_REQUIRE(cfg.traffic_scale > 0, "traffic scale must be positive");
  DV_REQUIRE(cfg.window > 0,
             "injection window must be positive (a zero-length window would "
             "inject every message at t=0 and simulate nothing)");
  DV_REQUIRE(cfg.parallel >= 1,
             "--parallel must be at least 1 (1 = sequential engine)");

  ExperimentResult out;
  // Phases: "setup" covers placement, network construction and workload
  // generation here; Network::run adds the top-level "sim" and "collect"
  // phases, so a profile's top-level phases cover the whole experiment.
  auto setup_phase = std::make_unique<obs::ScopedPhase>("setup");
  out.topo = topo::Dragonfly::canonical(cfg.dragonfly_p);

  // Resolve job sizes and volumes.
  std::vector<placement::JobRequest> requests;
  std::vector<std::uint64_t> volumes;
  std::vector<std::string> names;
  for (const auto& j : cfg.jobs) {
    placement::JobRequest req;
    req.name = j.workload;
    req.policy = j.policy;
    std::uint64_t bytes = j.bytes;
    if (is_application(j.workload)) {
      const auto& info = workload::app_info(j.workload);
      req.ranks = j.ranks ? j.ranks : info.ranks;
      if (!bytes) bytes = static_cast<std::uint64_t>(info.scaled_bytes);
    } else {
      req.ranks = j.ranks ? j.ranks : out.topo.num_terminals();
      if (!bytes) bytes = cfg.synthetic_bytes_per_rank * req.ranks;
    }
    bytes = static_cast<std::uint64_t>(
        static_cast<double>(bytes) * cfg.traffic_scale);
    DV_REQUIRE(bytes > 0, "job volume scaled to zero");
    requests.push_back(req);
    volumes.push_back(bytes);
    names.push_back(j.workload);
  }

  out.placement = placement::place_jobs(out.topo, requests, cfg.seed);

  std::string workload_label;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) workload_label += "+";
    workload_label += names[i];
  }

  // Generate every job's terminal-level messages up front — the backends
  // consume the identical message list, which is what makes flow-vs-packet
  // runs directly comparable.
  std::vector<netsim::Message> messages;
  for (std::size_t j = 0; j < cfg.jobs.size(); ++j) {
    workload::Config wcfg;
    wcfg.ranks = requests[j].ranks;
    wcfg.total_bytes = volumes[j];
    wcfg.window = cfg.window;
    wcfg.seed = cfg.seed + j * 1000003;
    wcfg.neighbor_stride =
        cfg.nn_stride ? cfg.nn_stride : out.topo.terminals_per_router();
    const auto msgs = workload::generate(cfg.jobs[j].workload, wcfg);
    const auto mapped = workload::map_to_terminals(msgs, out.placement, j);
    messages.insert(messages.end(), mapped.begin(), mapped.end());
  }

  if (cfg.backend == Backend::kFlow) {
    DV_REQUIRE(cfg.faults.empty(),
               "the flow backend does not model faults; use --backend packet");
    DV_REQUIRE(cfg.parallel == 1,
               "--parallel N > 1 requires --backend packet (the flow backend "
               "has no parallel engine)");
    flow::FlowNetwork net(out.topo, cfg.routing, cfg.params, cfg.seed);
    net.set_jobs(out.placement);
    net.set_labels(workload_label, cfg.placement_label(), names);
    net.add_messages(std::move(messages));  // unused past this branch
    if (cfg.sample_dt > 0) net.enable_sampling(cfg.sample_dt);
    if (cfg.flow_epoch_dt != 0) net.set_epoch_dt(cfg.flow_epoch_dt);
    if (cfg.flow_coarsen) net.enable_coarsening();
    {
      const std::string s = to_lower(trim(cfg.flow_stepping));
      if (s == "fixed") {
        net.set_stepping(flow::FlowNetwork::Stepping::kFixedEpoch);
      } else if (s != "event" && !s.empty()) {
        throw Error("unknown flow stepping: " + cfg.flow_stepping +
                    " (expected event|fixed)");
      }
    }
    setup_phase.reset();

    const auto t0 = std::chrono::steady_clock::now();
    out.run = net.run();
    const auto t1 = std::chrono::steady_clock::now();
    out.partitions = 1;
    out.events = net.epochs();  // the flow analog of an event count
    out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    out.flow.epochs = net.epochs();
    out.flow.solves = net.solves();
    out.flow.full_solves = net.full_solves();
    out.flow.incremental_solves = net.incremental_solves();
    out.flow.solver_rounds = net.solver_rounds();
    out.flow.drain_events = net.drain_events();
    out.profile = obs::capture();
    return out;
  }
  DV_REQUIRE(!cfg.flow_coarsen,
             "--flow-coarsen requires --backend flow (the packet simulator "
             "always resolves per-terminal demand)");

  netsim::Network net(out.topo, cfg.routing, cfg.params, cfg.seed);
  net.set_jobs(out.placement);
  net.set_labels(workload_label, cfg.placement_label(), names);
  net.add_messages(messages);

  if (!cfg.faults.empty()) net.set_fault_plan(cfg.faults);
  if (cfg.sample_dt > 0) net.enable_sampling(cfg.sample_dt);
  net.set_parallel(cfg.parallel);
  setup_phase.reset();

  const auto t0 = std::chrono::steady_clock::now();
  out.run = net.run();
  const auto t1 = std::chrono::steady_clock::now();
  out.partitions = net.partitions_used();
  out.events = net.events_processed();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.profile = obs::capture();
  return out;
}

}  // namespace dv::app
