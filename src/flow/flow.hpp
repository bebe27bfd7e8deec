// Flow-level fast backend for design-space sweeps.
//
// The packet simulator (netsim) resolves every 2 KB packet through
// store-and-forward routers; at ~9M events/s a hundreds-of-points design
// sweep takes hours. This module trades packet fidelity for steady-state
// fluid rates: each (src terminal, dst terminal) demand pair becomes a
// *flow* over a fixed path, and the rates are the max-min fair allocation
// computed by iterative water-filling (progressive filling: raise all
// unfrozen rates together, freeze the flows crossing whichever link
// exhausts first — SimGrid's LMM model, `waterFilling` in jianglong-nie's
// simulator). Demands activate when the workload issues them and drain at
// the allocated rates.
//
// Time advances event-driven (Stepping::kEvent, the default): each step
// runs to the next rate-changing event — the next injection quantum, a
// batch of bundle completions, or a sampling-frame boundary — instead of
// grinding fixed epochs through the long drain tail. Completions shrink
// the active set, and shrink-only changes re-solve *incrementally*
// (water_fill_removed): finished bundles' rates leave their links and
// water-filling re-runs restricted to the flows the perturbation can
// actually reach, falling back to a full solve when the cascade spreads.
// Stepping::kFixedEpoch keeps the PR-8 fixed-tick loop for comparison.
//
// FlowNetwork holds the same netsim::RunRecorder as the packet simulator:
// it reads link ids, endpoints and latencies from the shared dragonfly
// port table, and the recorder assembles the same RunMetrics record, so
// every spec, ring, report, .dvr pack, and serve verb runs unchanged
// against either backend.
//
// What the model keeps: link traffic split, saturation ordering between
// scenarios, latency as completion time plus fixed path latency, adaptive
// routing as a UGAL-style decision on solved link utilization. What it
// drops: packet-level queueing dynamics, VC backpressure transients, and
// fault injection (rejected up front).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "metrics/run_metrics.hpp"
#include "netsim/recorder.hpp"
#include "placement/placement.hpp"
#include "routing/routing.hpp"
#include "topology/dragonfly.hpp"
#include "util/rng.hpp"

namespace dv::flow {

/// One flow's view of the network for the solver: the links it crosses
/// (indices into the capacity vector) and an optional rate ceiling (its
/// demand rate; infinity = limited by the network only, <= 0 = absent).
struct SolverFlow {
  std::vector<std::uint32_t> links;
  double rate_cap = std::numeric_limits<double>::infinity();
};

struct SolverResult {
  std::vector<double> rates;      ///< per flow, same order as input
  std::vector<double> link_load;  ///< per link, sum of crossing rates
  std::uint32_t rounds = 0;       ///< water-filling iterations taken
};

/// Iterative max-min fair allocation (progressive filling / water-filling).
/// Every round raises all active rates by the largest uniform increment no
/// link or rate cap can refuse, then freezes the flows on the exhausted
/// link(s) and the flows that hit their cap. Terminates in at most
/// flows + links rounds; the result satisfies the max-min certificate:
/// every flow is either at its cap or crosses at least one saturated link.
SolverResult water_fill(const std::vector<double>& capacity,
                        const std::vector<SolverFlow>& flows);

/// Outcome of an incremental re-solve (water_fill_removed).
struct IncrementalResult {
  std::uint32_t released = 0;  ///< flows re-solved by the restricted passes
  std::uint32_t rounds = 0;    ///< restricted water-filling rounds taken
  /// The release cascade passed cascade_frac of the surviving flows; the
  /// state was left partially updated and the caller must run a full
  /// water_fill instead.
  bool full_solve = false;
};

/// Incremental max-min re-solve after deleting flows from a solved state.
///
/// `state` must be the water_fill result for `flows` (flows with
/// rate_cap <= 0 treated as absent). `removed` names currently-alive flows
/// to delete; their rates are taken off the links they crossed and
/// water-filling re-runs restricted to the flows the perturbation can
/// reach: the seed set is every alive flow crossing a removed flow's
/// links, and each restricted pass releases further frozen flows whose
/// max-min certificate the pass invalidated — a frozen flow above the new
/// water level of a still-saturated link (it must drop to make room), or
/// any frozen flow on a previously-saturated link that lost saturation
/// (it may rise). Links no released or removed flow crosses keep their
/// frozen allocation untouched, which is what makes sparse completions
/// cheap. When the released set exceeds `cascade_frac` of the surviving
/// flows the function bails with full_solve = true (state unspecified).
///
/// On success, `state` holds the same allocation a fresh water_fill over
/// the surviving flows would produce (removed flows' rates are zeroed).
/// The caller owns marking removed flows absent (rate_cap <= 0) before
/// reusing `flows` in later solves.
IncrementalResult water_fill_removed(const std::vector<double>& capacity,
                                     const std::vector<SolverFlow>& flows,
                                     const std::vector<std::uint32_t>& removed,
                                     SolverResult& state,
                                     double cascade_frac = 0.5);

/// Flow-level simulation: construct, add messages, run once — the same
/// call sequence as netsim::Network, consuming the same netsim::Message
/// and netsim::Params so app::run_experiment dispatches between backends
/// with no translation layer.
class FlowNetwork {
 public:
  /// Time-stepping strategy. kEvent advances to the exact next
  /// rate-changing event (injection quantum, completion batch, frame
  /// boundary); kFixedEpoch is the PR-8 fixed-tick loop, kept as the
  /// comparison baseline for the event engine's equivalence tests.
  enum class Stepping { kEvent, kFixedEpoch };

  FlowNetwork(const topo::Dragonfly& topo, routing::Algo algo,
              netsim::Params params = {}, std::uint64_t seed = 1);

  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  const topo::Dragonfly& topology() const { return topo_; }

  void add_message(const netsim::Message& m);
  /// Validates every message, then takes the vector (pass an rvalue to
  /// hand it over without a copy).
  void add_messages(std::vector<netsim::Message> ms);

  void set_labels(std::string workload, std::string placement,
                  std::vector<std::string> job_names);
  void set_jobs(const placement::Placement& placement);

  /// Fixed-rate time-series sampling (dt in ns). When enabled, the
  /// injection quantum is locked to dt and event steps split at frame
  /// boundaries, so frames are exactly the per-interval deltas. Without
  /// sampling the quantum is 1/256 of the injection span.
  void enable_sampling(double dt);

  void set_stepping(Stepping s);

  /// Aggregates demand per (src router, dst router) instead of per
  /// terminal pair — O(routers^2) bundles instead of O(terminals^2), the
  /// difference between uniform-random and structured traffic. Per-message
  /// terminal attribution (packet counts, latency, injected bytes) fans
  /// back out exactly at message completion; the tradeoff is latency and
  /// saturation attribution: messages of one router pair drain FIFO
  /// through a shared bundle (head-of-line across terminal pairs), and a
  /// terminal's sat_time becomes its router's aggregate injection/ejection
  /// saturation, identical for all terminals of the router.
  void enable_coarsening();

  /// Runs to completion (all demands drained) and returns metrics with
  /// the exact netsim RunMetrics schema. May be called once.
  metrics::RunMetrics run();

  // Work counters (the flow backend's analog of events_processed()).
  std::uint64_t epochs() const { return epochs_; }
  std::uint64_t solver_rounds() const { return solver_rounds_; }
  std::uint64_t solves() const { return solves_; }
  std::uint64_t full_solves() const { return full_solves_; }
  std::uint64_t incremental_solves() const { return incremental_solves_; }
  /// Bundle completions observed by the drain accounting.
  std::uint64_t drain_events() const { return drain_events_; }
  std::size_t bundles() const { return bundles_.size(); }

 private:
  /// All directed links in one index space (the solver's capacity vector):
  /// [0,T) injection, [T,2T) ejection, [2T,2T+L) local, [2T+L,2T+L+G)
  /// global, where T/L/G are the topology's terminal/local/global counts.
  /// Coarsening appends 2R router-level injection/ejection links after the
  /// globals (capacity p * terminal_bandwidth) and routes bundles over
  /// those instead of the per-terminal edge links.
  std::uint32_t inj_link(std::uint32_t term) const { return term; }
  std::uint32_t ej_link(std::uint32_t term) const { return nterm_ + term; }
  std::uint32_t local_link(std::uint32_t lid) const {
    return 2 * nterm_ + lid;
  }
  std::uint32_t global_link(std::uint32_t gid) const {
    return 2 * nterm_ + nlocal_ + gid;
  }
  std::uint32_t coarse_inj_link(std::uint32_t router) const {
    return coarse_base_ + router;
  }
  std::uint32_t coarse_ej_link(std::uint32_t router) const {
    return coarse_base_ + nrouters_ + router;
  }

  struct PathInfo {
    std::vector<std::uint32_t> links;  ///< link indices, source to sink
    std::uint32_t router_hops = 0;     ///< routers on the path
    double latency = 0.0;              ///< fixed wire+router latency (ns)
  };

  /// A demand bundle: every message of one (src,dst) terminal pair —
  /// router pair under coarsening — drains FIFO through one flow. Its path
  /// is (re)decided whenever the bundle transitions idle -> backlogged,
  /// the flow-level analog of per-packet adaptive decisions at injection
  /// time.
  struct Bundle {
    std::uint32_t src = 0;  ///< representative terminal when coarsening
    std::uint32_t dst = 0;
    /// FIFO window [head, tail) into bundle_msgs_: the messages injected
    /// and not yet delivered. The bundle's messages sit there in
    /// processing order, so an injection only advances tail.
    std::uint32_t head = 0;
    std::uint32_t tail = 0;
    double head_left = 0.0;  ///< bytes of the head message not yet drained
    double backlog = 0.0;    ///< bytes not yet drained
    double rate = 0.0;       ///< current allocation (bytes/ns)
    PathInfo path;           ///< current path
    PathInfo min_path;       ///< minimal path, built on first activation
  };

  /// Walks the planner's minimal step function from src to dst, honoring
  /// a preset Valiant proxy group/router, and records every link crossed
  /// (read from the shared port table).
  PathInfo build_path(std::uint32_t src_term, std::uint32_t dst_term,
                      std::int32_t proxy_group,
                      std::int32_t proxy_router) const;
  /// build_path for a bundle, with the router-level edge links swapped in
  /// under coarsening.
  PathInfo bundle_path(const Bundle& b, std::int32_t proxy_group,
                       std::int32_t proxy_router) const;

  /// Bottleneck utilization along a path, from the previous solve.
  double path_peak_util(const PathInfo& path) const;

  /// Chooses the bundle's path per the configured algorithm. Adaptive
  /// algorithms compare the bottleneck utilization (from the previous
  /// solve) along the minimal path against a Valiant candidate — the
  /// fluid analog of UGAL's queue-depth comparison.
  void decide_route(Bundle& b);

  /// Sorts messages_ into processing order and resolves each message's
  /// bundle once: ids in first-seen processing order, one message-id list
  /// per bundle (bundle_msgs_).
  void build_bundles();
  /// Injects message k (processing order) into its bundle's FIFO
  /// window; returns true when the bundle was idle and its route was just
  /// decided (the caller activates it).
  bool inject(std::size_t k);
  void solve_epoch(double dt);
  /// Returns true when any bundle fully drained (the active set changed,
  /// so the next epoch must re-solve).
  bool drain_epoch(double t0, double dt);
  void push_sample_frame();
  metrics::RunMetrics collect(double end);
  void publish_run_obs(const metrics::RunMetrics& out);

  // Event-driven engine (Stepping::kEvent).
  /// Returns the simulated end time (sampled: last frame boundary).
  double run_event(double dt);
  /// Fixed-epoch loop (Stepping::kFixedEpoch).
  double run_fixed(double dt);
  void solve_event_full(double dt);
  /// Shrink-only re-solve: `removed` is the accumulated completion batch
  /// since the last solve (still cap-alive in ev_flows_; zeroed here).
  void solve_event_drained(double dt, const std::vector<std::uint32_t>& removed);
  void apply_event_solve();
  /// Time of the k-th next bundle completion at current rates (the batch
  /// re-solve target); infinity when nothing is active.
  double next_completion_target(double t);

  // ---- state ----------------------------------------------------------
  const topo::Dragonfly topo_;
  routing::Algo algo_;
  netsim::Params params_;
  netsim::RunRecorder rec_;        ///< port table, identity, columns, series
  routing::RoutePlanner planner_;  ///< kMinimal walker (proxies preset)
  routing::NullProbe null_probe_;

  std::uint32_t nterm_ = 0, nlocal_ = 0, nglobal_ = 0, nrouters_ = 0;
  std::uint32_t coarse_base_ = 0;    ///< first router-level link index
  std::vector<double> capacity_;     ///< per link, bytes/ns
  std::vector<double> link_traffic_; ///< per link, cumulative bytes
  std::vector<double> link_sat_;     ///< per link, cumulative saturated ns
  std::vector<double> link_util_;    ///< load/capacity from the last solve
  std::vector<std::uint8_t> link_saturated_;  ///< solve-scope visit marker
  std::vector<std::uint32_t> used_links_;     ///< links in the last solve
  std::vector<std::uint32_t> sat_links_;      ///< saturated-link list

  std::vector<netsim::Message> messages_;  ///< processing order once run
  std::vector<std::uint32_t> msg_bundle_;   ///< bundle of each message
  std::vector<std::uint32_t> bundle_msgs_;  ///< message ids, grouped by bundle
  std::vector<Bundle> bundles_;
  std::vector<std::uint32_t> active_;  ///< bundle ids, ascending

  std::vector<Rng> term_rng_;  ///< per-source Valiant draws (netsim scheme)

  /// Terminal frames keep their own per-link deltas, (inj - prev_inj) +
  /// (ej - prev_ej), over the edge and router-level links; the link-class
  /// frames go through the recorder.
  std::vector<double> prev_traffic_, prev_sat_;

  std::uint64_t epochs_ = 0;
  std::uint64_t solver_rounds_ = 0;
  std::uint64_t solves_ = 0;
  std::uint64_t full_solves_ = 0;
  std::uint64_t incremental_solves_ = 0;
  std::uint64_t drain_events_ = 0;
  std::uint64_t msgs_finished_ = 0;
  double bytes_injected_ = 0.0;
  double bytes_delivered_ = 0.0;
  double max_delivery_ = 0.0;
  bool ran_ = false;
  bool coarsen_ = false;
  Stepping stepping_ = Stepping::kEvent;

  // Event-engine solver state: one persistent SolverFlow per bundle
  // (rate_cap <= 0 = absent), so incremental re-solves have a stable flow
  // index space and full solves skip the per-epoch path copies.
  std::vector<SolverFlow> ev_flows_;
  SolverResult ev_state_;
  /// The last event solve froze some flow at its demand cap; such rates
  /// change with every drained byte, so shrink-only steps cannot reuse
  /// the frozen allocation and must full-solve.
  bool ev_cap_bound_ = false;

  // Scratch reused across epochs.
  std::vector<SolverFlow> scratch_flows_;
  std::vector<std::uint32_t> drained_;
  std::vector<double> comp_scratch_;
};

}  // namespace dv::flow
