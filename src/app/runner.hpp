// Experiment runner: the one-call path from a declarative experiment
// description (network scale, jobs, routing, placement, sampling) to a
// RunMetrics — used by the CLI, the examples, and every figure bench.
#pragma once

#include <string>
#include <vector>

#include "core/datatable.hpp"
#include "fault/fault.hpp"
#include "metrics/run_metrics.hpp"
#include "netsim/network.hpp"
#include "obs/profile.hpp"
#include "placement/placement.hpp"
#include "routing/routing.hpp"
#include "topology/dragonfly.hpp"

namespace dv::app {

/// Simulation backend: the packet-level PDES reference or the flow-level
/// max-min water-filling model (src/flow) — same RunMetrics schema, so
/// everything downstream of run_experiment is backend-agnostic.
enum class Backend { kPacket, kFlow };

Backend backend_from_string(const std::string& name);  // throws on unknown
std::string to_string(Backend b);

/// One job in an experiment.
struct JobSpec {
  std::string workload;  ///< a dv::workload generator name
  std::uint32_t ranks = 0;  ///< 0 = app default / all terminals (synthetic)
  placement::Policy policy = placement::Policy::kContiguous;
  std::uint64_t bytes = 0;  ///< 0 = app default / synthetic default
};

struct ExperimentConfig {
  std::uint32_t dragonfly_p = 3;  ///< canonical dragonfly parameter
  std::vector<JobSpec> jobs;
  routing::Algo routing = routing::Algo::kAdaptive;
  double traffic_scale = 1.0;  ///< multiplies every job's volume
  double window = 2.0e6;       ///< injection window (ns)
  double sample_dt = 0.0;      ///< 0 = no time series
  std::uint64_t seed = 1;
  std::uint64_t synthetic_bytes_per_rank = 32 * 1024;
  /// nearest_neighbor stride (see workload::Config::neighbor_stride);
  /// 0 = auto (terminals per router, the congestion-forming variant).
  std::uint32_t nn_stride = 0;
  /// Simulation engine: 1 = sequential reference, N > 1 = conservative
  /// parallel engine with N partitions (clamped to the group count).
  /// Packet backend only; 0 is rejected.
  std::uint32_t parallel = 1;
  netsim::Params params;
  /// Scheduled link/router outages (empty = healthy network).
  fault::FaultPlan faults;
  /// Simulation backend. The flow backend rejects `parallel` > 1 and
  /// non-empty `faults` (no parallel engine, no fluid fault model).
  Backend backend = Backend::kPacket;
  /// Flow backend epoch length in ns (0 = auto; locked to sample_dt when
  /// sampling is on; explicit values must be positive).
  double flow_epoch_dt = 0.0;
  /// Flow backend: aggregate demand per (src router, dst router) instead
  /// of per terminal pair. Big win for uniform-random-shaped demand
  /// (O(routers^2) bundles instead of O(terminals^2)); the tradeoff is
  /// per-terminal latency/saturation attribution (terminals of one router
  /// share FIFO order and saturation). Rejected with --backend packet.
  bool flow_coarsen = false;
  /// Flow backend time stepping: "event" (default — run to the next
  /// rate-changing event) or "fixed" (the PR-8 fixed-epoch loop).
  std::string flow_stepping = "event";

  /// Human-readable placement label ("contiguous", "random_router",
  /// "hybrid(...)" when jobs differ).
  std::string placement_label() const;
};

/// Flow-backend solver telemetry (all zero for packet runs): how the run
/// spent its solves — the provenance `bench_sweep` records so the bench
/// trajectory can see *why* a point got faster.
struct FlowTelemetry {
  std::uint64_t epochs = 0;          ///< time steps taken
  std::uint64_t solves = 0;          ///< water-filling solves (any kind)
  std::uint64_t full_solves = 0;     ///< from-scratch solves
  std::uint64_t incremental_solves = 0;  ///< shrink-only re-solves
  std::uint64_t solver_rounds = 0;   ///< water-filling rounds, all solves
  std::uint64_t drain_events = 0;    ///< bundle completions observed
};

struct ExperimentResult {
  topo::Dragonfly topo = topo::Dragonfly::canonical(1);
  placement::Placement placement;
  metrics::RunMetrics run;
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  FlowTelemetry flow;  ///< zeros unless backend == kFlow
  /// Partition count the simulation actually used (1 = sequential engine).
  std::uint32_t partitions = 1;
  /// Observability snapshot taken when the experiment finished: counters,
  /// gauges and phase times accumulated since the last obs::reset() (call
  /// obs::reset() before run_experiment for a per-experiment profile).
  /// Empty in DV_OBS_ENABLED=OFF builds. Never feeds back into the
  /// simulation, so RunMetrics stay bit-identical with or without it.
  obs::RunProfile profile;
};

/// Places the jobs, generates every workload, simulates, collects metrics.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// Loads a saved RunMetrics and builds the VA substrate in one step, under
/// the "load" and "dataset" obs phases. Shared by the CLI view commands so
/// every one of them profiles ingest identically.
core::DataSet load_run_dataset(const std::string& path);

}  // namespace dv::app
