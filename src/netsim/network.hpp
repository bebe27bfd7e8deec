// Packet-level Dragonfly network simulator (the CODES stand-in).
//
// Model: store-and-forward packets, output-queued routers, credit-based
// virtual-channel flow control. Every directed link (local, global, and
// both directions of each terminal-router cable) has per-VC credit pools;
// a packet occupies one downstream buffer slot from the moment its
// transmission starts until the downstream hop forwards it onward. The
// "link saturation time" metric — the paper's congestion signal — is the
// accumulated time any VC buffer of the link is full, which is exactly the
// back-pressure condition.
//
// Deadlock freedom: the VC used on a router-to-router link equals the
// packet's link-hop index, which increases monotonically along every path
// allowed by the RoutePlanner, so the channel dependency graph is acyclic.
//
// Engines: one model core serves two engines behind a tiny scheduling
// shim. The sequential dv::pdes::Simulator is the reference; the
// conservative pdes::ParallelSimulator runs the same model decomposed into
// one logical process per router (plus its terminals), partitioned by
// Dragonfly group. Every event carries an engine-independent priority key
// (kind + entity id), every terminal/router has its own random stream, and
// all mutable state is owned by exactly one router's partition — so for
// execution-order-independent routing (minimal, Valiant) the parallel
// engine reproduces the sequential RunMetrics bit for bit at any partition
// count. Lookahead is the minimum physical delay that can cross a
// partition boundary: min(credit_latency, local_latency, global_latency).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/run_metrics.hpp"
#include "pdes/engine.hpp"
#include "netsim/partition.hpp"
#include "pdes/parallel.hpp"
#include "placement/placement.hpp"
#include "routing/routing.hpp"
#include "topology/dragonfly.hpp"
#include "util/ring_queue.hpp"
#include "util/rng.hpp"

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

/// A complete simulation: construct, add messages, run once.
class Network final : public pdes::LogicalProcess,
                      public pdes::ParallelLp,
                      public routing::QueueProbe {
 public:
  Network(const topo::Dragonfly& topo, routing::Algo algo, Params params = {},
          std::uint64_t seed = 1);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const topo::Dragonfly& topology() const { return topo_; }

  /// Queues a message (must be called before run()). src != dst required.
  void add_message(const Message& m);
  void add_messages(const std::vector<Message>& ms);

  /// Labels the run for the metrics record.
  void set_labels(std::string workload, std::string placement,
                  std::vector<std::string> job_names);

  /// Marks terminal job ownership (from a placement) for the metrics.
  void set_jobs(const placement::Placement& placement);

  /// Enables fixed-rate time-series sampling (dt in ns).
  void enable_sampling(double dt);

  /// Installs a fault plan (must be called before run()). An empty plan is
  /// a no-op: the simulation is bit-identical to one without this call.
  /// A non-empty plan compiles the plan into a FaultTimeline, switches the
  /// planner into fault-aware routing (which may raise the VC count for
  /// minimal routing — detoured packets take Valiant-length paths), and
  /// schedules one wake event per liveness transition so the reaction is
  /// an ordinary deterministic PDES event on both engines.
  void set_fault_plan(const fault::FaultPlan& plan);

  /// Selects the engine: 1 = sequential reference, N > 1 = the
  /// conservative parallel engine with N partitions (clamped to the number
  /// of groups and to 64). Must be called before run().
  void set_parallel(std::uint32_t workers);

  /// Partition count the run actually used (valid after run()).
  std::uint32_t partitions_used() const { return partitions_used_; }

  /// Topology-aware partition plan the parallel run used (cut provenance
  /// for bench/obs); nullptr for sequential runs or before run().
  const PartitionPlan* partition_plan() const { return plan_.get(); }

  /// Per-worker engine statistics (busy/wait split, negotiation rounds);
  /// nullptr for sequential runs or before run().
  const pdes::ParallelSimulator* parallel_engine() const { return par_.get(); }

  /// Conservative window width: the smallest delay that can cross a
  /// router-partition boundary.
  double lookahead() const;

  /// Runs the simulation to completion and returns the collected metrics.
  /// May be called once.
  metrics::RunMetrics run();

  // routing::QueueProbe: output queue depth (packets, incl. in service).
  double depth(std::uint32_t router, std::uint32_t port) const override;
  // routing::QueueProbe: fault liveness of an output port. Pure function
  // of the fault timeline — safe to evaluate from any partition.
  bool port_blocked(std::uint32_t router, std::uint32_t port,
                    double now) const override;
  bool faults_active() const override { return has_faults_; }

  // pdes::LogicalProcess (sequential engine).
  void on_event(pdes::Simulator& sim, const pdes::Event& ev) override;
  // pdes::ParallelLp (parallel engine).
  void on_event(pdes::ParallelContext& ctx, const pdes::Event& ev) override;

  std::uint64_t events_processed() const {
    return par_ ? par_->events_processed() : sim_.events_processed();
  }
  std::uint64_t packets_injected() const;
  std::uint64_t packets_delivered() const;

 private:
  // ---- link identity: class + id ------------------------------------
  enum class LinkClass : std::uint32_t { kNone, kInjection, kEjection, kLocal, kGlobal };
  static std::uint64_t encode_link(LinkClass c, std::uint32_t id, std::uint32_t vc);
  static LinkClass link_class(std::uint64_t enc);
  static std::uint32_t link_id(std::uint64_t enc);
  static std::uint32_t link_vc(std::uint64_t enc);

  // ---- per-link-class credit/metric state ---------------------------
  struct LinkArray {
    std::uint32_t vcs = 1;
    std::vector<std::int32_t> credits;    // [link*vcs + vc]
    std::vector<SimTime> zero_since;      // [link*vcs + vc]
    std::vector<double> closed_sat;       // [link]
    std::vector<std::uint32_t> open_zero; // [link] count of open intervals
    std::vector<double> open_since_sum;   // [link]
    std::vector<double> traffic;          // [link] bytes
    std::vector<std::uint8_t> backlog;    // [link] output backlog state
    std::vector<SimTime> backlog_since;   // [link]
    std::vector<std::uint64_t> retries;   // [link] fault retries at the port
    std::vector<std::uint64_t> drops;     // [link] packets dropped at the port

    void init(std::size_t links, std::uint32_t vcs_per_link,
              std::int32_t initial_credits);
    void take_credit(std::uint32_t link, std::uint32_t vc, SimTime now);
    void give_credit(std::uint32_t link, std::uint32_t vc, SimTime now);
    bool has_credit(std::uint32_t link, std::uint32_t vc) const;
    /// Output-backlog contribution: while the upstream output queue holds
    /// a full buffer's worth of packets the link counts as saturated
    /// (contention at the link itself, not just downstream blocking).
    void set_backlog(std::uint32_t link, bool full, SimTime now);
    /// Saturation accumulated up to `now`, including open intervals.
    double sat_at(std::uint32_t link, SimTime now) const;
  };

  struct Packet {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint32_t size = 0;
    std::int32_t job = -1;
    SimTime inject_time = 0.0;
    std::uint64_t uid = 0;          // (src << 32) | per-terminal counter —
                                    // engine-independent event priority key
    std::uint32_t router_hops = 0;  // routers visited
    std::uint32_t link_hops = 0;    // router-router links crossed (== VC)
    std::uint32_t retries = 0;      // fault-retry attempts at current router
    std::uint32_t next_free = 0;    // remote free-list chain (arena)
    std::uint64_t in_link = 0;      // where to return the buffer credit
    routing::PacketRoute route;
  };

  struct OutPort {
    RingQueue<std::uint32_t> queue;
    bool busy = false;
  };

  struct MsgProgress {
    std::uint32_t dst = 0;
    std::uint64_t remaining = 0;
    std::int32_t job = -1;
    SimTime issue_time = 0.0;  ///< when the application issued the send
  };

  struct TerminalState {
    RingQueue<MsgProgress> pending;
    bool injector_busy = false;
  };

  // ---- packet arena ---------------------------------------------------
  // One arena per partition ("shard"). A packet id is shard << 26 | index;
  // storage is fixed 1024-slot chunks, and the chunk table's capacity is
  // pre-reserved to the in-flight bound (total buffer credits), so the
  // table never reallocates while other partitions hold packet ids into
  // it. Packets delivered on a foreign partition are recycled through a
  // lock-free multi-producer stack drained by the owner at allocation.
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kShardShift = 26;
  static constexpr std::uint32_t kIndexMask = (1u << kShardShift) - 1;
  static constexpr std::uint32_t kNilIndex =
      std::numeric_limits<std::uint32_t>::max();

  /// Per-partition state: packet arena, scalar counters, routing stats.
  /// Only the owning partition's worker mutates a shard during a window
  /// (except remote_free, which is the lock-free return stack).
  struct alignas(64) Shard {
    std::vector<std::unique_ptr<Packet[]>> chunks;
    std::vector<std::uint32_t> free_list;
    std::uint32_t allocated = 0;
    std::atomic<std::uint32_t> remote_free{kNilIndex};

    std::uint64_t packets_injected = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t bytes_injected = 0;
    std::uint64_t bytes_delivered = 0;
    std::int64_t in_flight = 0;      // per-shard delta; only the sum is >= 0
    std::uint64_t msgs_finished = 0;
    std::uint64_t fault_retries = 0;
    std::uint64_t pkts_dropped = 0;
    std::uint64_t bytes_dropped = 0;
    routing::RouteStats route_stats;
  };

  /// Engine-dispatch shim: handlers schedule through this so one model
  /// core serves both engines.
  struct Ctx {
    pdes::Simulator* seq = nullptr;
    pdes::ParallelContext* par = nullptr;
    SimTime now = 0.0;
    std::uint32_t shard = 0;
    void schedule_in(SimTime delay, pdes::LpId lp, std::uint32_t kind,
                     std::uint64_t data0, std::uint64_t data1,
                     std::uint64_t pri) {
      if (seq) {
        seq->schedule_in(delay, lp, kind, data0, data1, pri);
      } else {
        par->schedule(now + delay, lp, kind, data0, data1, pri);
      }
    }
  };

  // ---- event kinds ---------------------------------------------------
  enum : std::uint32_t {
    kEvMsgStart,      // data0 = message index
    kEvInjectorFree,  // data0 = terminal
    kEvPktAtRouter,   // data0 = packet, data1 = router
    kEvPktAtTerminal, // data0 = packet, data1 = terminal
    kEvPortFree,      // data0 = router, data1 = port
    kEvCredit,        // data0 = encoded link+vc
    kEvPktRetry,      // data0 = packet, data1 = router
    kEvFaultWake,     // data0 = router (a liveness transition near it)
    kEvPktDropNotify, // data0 = src terminal (attributes the drop)
  };

  /// Engine-independent ordering key for simultaneous events: kind in the
  /// top byte, the owning entity (packet uid, terminal, port, link) below.
  /// Events sharing a key are interchangeable (e.g. two credit returns
  /// for the same link+VC), so any (time, pri)-respecting order yields
  /// identical results on both engines.
  static constexpr std::uint64_t pri_key(std::uint32_t kind,
                                         std::uint64_t entity) {
    return (static_cast<std::uint64_t>(kind) << 56) | entity;
  }

  // ---- helpers ---------------------------------------------------
  std::uint32_t alloc_packet(std::uint32_t shard_id);
  void free_packet(std::uint32_t shard_id, std::uint32_t pid);
  Packet& packet(std::uint32_t pid) {
    Shard& sh = *shards_[pid >> kShardShift];
    const std::uint32_t idx = pid & kIndexMask;
    return sh.chunks[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }
  OutPort& port(std::uint32_t router, std::uint32_t p);
  LinkArray& link_array_for(LinkClass cls);
  void update_backlog(Ctx& ctx, std::uint32_t router, std::uint32_t p);
  pdes::LpId lp_of_terminal(std::uint32_t term) const {
    return topo_.terminal_router(term);
  }

  void dispatch(Ctx& ctx, const pdes::Event& ev);
  void try_inject(Ctx& ctx, std::uint32_t term);
  void try_transmit(Ctx& ctx, std::uint32_t router, std::uint32_t p);
  void handle_packet_at_router(Ctx& ctx, std::uint32_t pkt_id,
                               std::uint32_t router, bool is_retry = false);
  void handle_packet_at_terminal(Ctx& ctx, std::uint32_t pkt_id,
                                 std::uint32_t term);
  /// Fault reaction for a packet whose next hop from `router` is dead:
  /// schedules an exponential-backoff retry while the budget lasts, then
  /// drops the packet (freeing its buffer credit and notifying the source
  /// terminal's partition for attribution).
  void retry_or_drop(Ctx& ctx, std::uint32_t pkt_id, std::uint32_t router,
                     std::uint32_t blocked_port =
                         std::numeric_limits<std::uint32_t>::max());
  /// Reacts to a liveness transition adjacent to `router`: bounces queued
  /// packets off now-dead ports into the retry path, restarts transmission
  /// on revived ports, and re-attempts injection at local terminals.
  void handle_fault_wake(Ctx& ctx, std::uint32_t router);
  void return_credit(Ctx& ctx, std::uint64_t enc_link);
  void take_sample(SimTime now);
  void flush_and_collect(metrics::RunMetrics& out, SimTime end);
  std::uint32_t resolve_partitions() const;
  void init_shards(std::uint32_t count);
  void publish_run_obs(const metrics::RunMetrics& out);

  /// (link class, link id, downstream arrival delay, serialization rate)
  struct Hop {
    LinkClass cls = LinkClass::kNone;
    std::uint32_t id = 0;
    std::uint32_t dst_router = 0;   // for local/global
    std::uint32_t dst_port = 0;
    std::uint32_t dst_terminal = 0; // for ejection
    double bandwidth = 1.0;
    double latency = 0.0;
  };
  /// Derives the hop record from the topology (ctor-time only; the hot
  /// path reads the precomputed hop_cache_ through hop_for_port).
  Hop compute_hop(std::uint32_t router, std::uint32_t p) const;
  const Hop& hop_for_port(std::uint32_t router, std::uint32_t p) const {
    return hop_cache_[static_cast<std::size_t>(router) * ports_per_router_ + p];
  }

  // ---- state ---------------------------------------------------------
  const topo::Dragonfly topo_;
  Params params_;
  routing::RoutePlanner planner_;
  pdes::Simulator sim_;
  std::unique_ptr<pdes::ParallelSimulator> par_;

  std::vector<Message> messages_;
  std::vector<TerminalState> terminals_;
  std::vector<OutPort> ports_;       // router-major
  std::uint32_t ports_per_router_ = 0;
  std::uint32_t num_vcs_ = 1;

  LinkArray local_links_, global_links_, injection_, ejection_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Rng> term_rng_;               // injection-time routing draws
  std::vector<Rng> router_rng_;             // in-flight (PAR) routing draws
  std::vector<std::uint32_t> term_pkt_seq_; // per-terminal packet counter
  std::vector<std::uint32_t> router_partition_;

  // Per-port hop records, router-major — topology and physical parameters
  // are fixed at construction, so the hot path never recomputes them.
  std::vector<Hop> hop_cache_;

  // Terminal delivery stats, columnar: the delivery handler touches three
  // adjacent flat arrays instead of scattering into 80-byte records; the
  // full TerminalMetrics rows are assembled once, in flush_and_collect.
  std::vector<std::uint64_t> term_finished_;
  std::vector<double> term_sum_latency_;
  std::vector<double> term_sum_hops_;
  std::vector<std::uint64_t> term_rerouted_;
  std::vector<std::uint64_t> term_dropped_;

  // Fault injection. fault_ is immutable during the run; per-router tallies
  // are written only by the owning router's partition.
  fault::FaultTimeline fault_;
  bool has_faults_ = false;
  std::vector<std::uint64_t> router_retries_;
  std::vector<std::uint64_t> router_drops_;

  // Sampling.
  double sample_dt_ = 0.0;
  metrics::SampledSeries local_traffic_ts_, local_sat_ts_;
  metrics::SampledSeries global_traffic_ts_, global_sat_ts_;
  metrics::SampledSeries term_traffic_ts_, term_sat_ts_;
  std::vector<double> prev_local_traffic_, prev_local_sat_;
  std::vector<double> prev_global_traffic_, prev_global_sat_;
  std::vector<double> prev_term_traffic_, prev_term_sat_;

  std::string workload_label_ = "custom";
  std::string placement_label_ = "custom";
  std::vector<std::string> job_names_;
  std::vector<std::int32_t> term_job_;

  std::uint64_t seed_ = 1;
  std::uint32_t parallel_ = 1;
  std::uint32_t partitions_used_ = 1;
  std::unique_ptr<PartitionPlan> plan_;  // parallel runs only
  bool ran_ = false;
};

}  // namespace dv::netsim
