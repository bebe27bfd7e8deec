// What the two dragonfly backends share: the physical parameters, the
// message input, the per-router port table, and the recorder that turns
// their measurements into one RunMetrics record.
//
// The packet simulator (netsim::Network) and the flow model
// (flow::FlowNetwork) produce the same entity schema — routers, local and
// global links, terminals, sampled series (Fig. 2 of the paper). This
// module is the one place that knows how ports map to links and link ids
// to endpoints, which runs and messages are valid, and how the record is
// assembled. Each backend keeps only its own state (credits and VCs,
// solver links and capacities) and fills in the measured columns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics/run_metrics.hpp"
#include "placement/placement.hpp"
#include "routing/routing.hpp"
#include "topology/dragonfly.hpp"

namespace dv::netsim {

/// Physical parameters. Bandwidths are in GB/s (== bytes/ns), latencies
/// and delays in ns. Defaults approximate the Cray Aries-class links used
/// in the paper's CODES configurations.
struct Params {
  double terminal_bandwidth = 5.25;
  double local_bandwidth = 5.25;
  double global_bandwidth = 4.7;
  double terminal_latency = 30.0;
  double local_latency = 50.0;
  double global_latency = 300.0;
  double router_delay = 50.0;
  double credit_latency = 20.0;
  std::uint32_t packet_size = 2048;       ///< bytes per packet (last may be short)
  std::uint32_t vc_buffer_packets = 8;    ///< credits per (link, VC)
  routing::AdaptiveParams adaptive;
  std::uint64_t event_budget = 0;         ///< 0 = unlimited
  /// Fault handling: a packet whose chosen output port is dead waits
  /// fault_retry_base * 2^(attempt-1) ns between attempts; after
  /// fault_retry_budget failed attempts it is dropped.
  double fault_retry_base = 200.0;
  std::uint32_t fault_retry_budget = 6;

  void validate() const;
};

/// One application-level message to inject.
struct Message {
  std::uint32_t src_terminal = 0;
  std::uint32_t dst_terminal = 0;
  std::uint64_t bytes = 0;
  SimTime time = 0.0;   ///< earliest injection time
  std::int32_t job = -1;
};

/// The class of a directed link. Injection and ejection links are the two
/// directions of a terminal-router cable; their id is the terminal id.
enum class LinkClass : std::uint32_t { kNone, kInjection, kEjection, kLocal, kGlobal };

/// Where one router output port leads: the link it drives (class and id),
/// the far end (router and its input port, or the terminal) and the link's
/// serialization rate and latency.
struct Hop {
  LinkClass cls = LinkClass::kNone;
  std::uint32_t id = 0;
  std::uint32_t dst_router = 0;   ///< local/global
  std::uint32_t dst_port = 0;     ///< local/global
  std::uint32_t dst_terminal = 0; ///< ejection
  double bandwidth = 1.0;
  double latency = 0.0;
};

/// Every router's output ports, router-major, derived once from the
/// topology and the physical parameters.
class PortTable {
 public:
  PortTable(const topo::Dragonfly& topo, const Params& params);

  std::uint32_t ports_per_router() const { return ports_per_router_; }
  const Hop& hop(std::uint32_t router, std::uint32_t port) const {
    return hops_[static_cast<std::size_t>(router) * ports_per_router_ + port];
  }

 private:
  std::uint32_t ports_per_router_ = 0;
  std::vector<Hop> hops_;
};

/// One entity class' sampled traffic and saturation, plus the cumulative
/// values at the previous frame.
class SeriesPair {
 public:
  metrics::SampledSeries traffic, sat;

  void init(std::size_t entities, double dt);

  /// Appends one frame holding float(cur - prev) for every entity, where
  /// `cur_traffic(i)` and `cur_sat(i)` read entity i's cumulative values.
  template <typename Traffic, typename Sat>
  void capture(Traffic cur_traffic, Sat cur_sat) {
    float* dt = traffic.push_frame_raw();
    float* ds = sat.push_frame_raw();
    for (std::size_t i = 0; i < prev_traffic_.size(); ++i) {
      const double ct = cur_traffic(i);
      const double cs = cur_sat(i);
      dt[i] = static_cast<float>(ct - prev_traffic_[i]);
      ds[i] = static_cast<float>(cs - prev_sat_[i]);
      prev_traffic_[i] = ct;
      prev_sat_[i] = cs;
    }
  }

 private:
  std::vector<double> prev_traffic_, prev_sat_;
};

/// The run's identity, its per-terminal delivery columns and its sampled
/// series, and the assembly of the RunMetrics record from them. Delivery
/// columns are written per terminal, so parallel partitions that own
/// disjoint terminals may record concurrently.
class RunRecorder {
 public:
  RunRecorder(const topo::Dragonfly& topo, const Params& params,
              routing::Algo algo, std::uint64_t seed);

  const PortTable& ports() const { return ports_; }

  /// Rejects a message no backend can carry: an endpoint outside the
  /// topology, a self-send, an empty message or a negative issue time.
  void check(const Message& m) const;

  void set_labels(std::string workload, std::string placement,
                  std::vector<std::string> job_names);
  /// Marks terminal job ownership (from a placement).
  void set_jobs(const placement::Placement& placement);

  /// Records `packets` delivered to `term` with their summed latency and
  /// router visits.
  void deliver(std::uint32_t term, std::uint64_t packets, double latency,
               double hops) {
    finished_[term] += packets;
    sum_latency_[term] += latency;
    sum_hops_[term] += hops;
  }
  void count_rerouted(std::uint32_t term) { ++rerouted_[term]; }
  void count_dropped(std::uint32_t term) { ++dropped_[term]; }

  /// Allocates the six series for fixed-rate sampling every `dt` ns.
  void enable_sampling(double dt);
  double sample_dt() const { return sample_dt_; }
  SeriesPair& local_series() { return local_ts_; }
  SeriesPair& global_series() { return global_ts_; }
  SeriesPair& terminal_series() { return term_ts_; }

  /// The record without measurements: header, link rows with their
  /// endpoints, terminal rows with placement and delivery columns, and the
  /// sampled series (handed over, so call once). The backend fills in link
  /// traffic and saturation, terminal injection and saturation, and any
  /// fault columns.
  metrics::RunMetrics collect(double end);

 private:
  topo::Dragonfly topo_;
  PortTable ports_;
  std::string routing_;
  std::uint64_t seed_;

  std::string workload_label_ = "custom";
  std::string placement_label_ = "custom";
  std::vector<std::string> job_names_;
  std::vector<std::int32_t> term_job_;

  std::vector<std::uint64_t> finished_;
  std::vector<double> sum_latency_;
  std::vector<double> sum_hops_;
  std::vector<std::uint64_t> rerouted_;
  std::vector<std::uint64_t> dropped_;

  double sample_dt_ = 0.0;
  SeriesPair local_ts_, global_ts_, term_ts_;
};

}  // namespace dv::netsim
