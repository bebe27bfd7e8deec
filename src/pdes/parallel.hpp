// Conservative parallel discrete-event simulation.
//
// The paper's substrate (ROSS) is a *parallel* DES engine; this module
// provides the conservative counterpart for multi-threaded execution.
// Logical processes are partitioned across worker threads and every event
// scheduled for an LP in a *different* partition must clear that pair's
// lookahead: `t >= now + pair_lookahead(src, dst)`. Synchronization is
// barrier-free window negotiation: every partition publishes a monotone
// lower bound `lb` on anything it will still execute or send; a worker
// advances to `safe = min over in-neighbours q of (lb[q] +
// pair_lookahead(q, p))`, processes events below `safe`, and republishes
// its own bound. Cross events travel through per-(src, dst) mailbox
// channels. Partitions far apart in the channel graph (large pairwise
// lookahead) advance independently, and nobody pays a rendezvous per
// window; a rare rendezvous only resolves termination, idle gaps and
// errors.
//
// The pairwise lookahead matrix defaults to the scalar `lookahead` for
// every pair; models with a channel graph (netsim) raise entries to the
// minimum delay over channels actually crossing that cut, and mark pairs
// no channel crosses as unreachable (+infinity — sends there throw).
// Each partition's bucket-scheduler width is unified with its effective
// window: the minimum finite inbound pairwise lookahead.
//
// Determinism: the *sender* assigns cross-partition sequence numbers
// (per-channel counters, namespaced above local seqs), so the (time, pri,
// seq) order is independent of thread timing. A model that assigns unique
// priority keys (netsim does) therefore gets an event order independent of
// both thread timing *and* partition count — bit-identical to the
// sequential engine. Models that leave pri = 0 (PHOLD) are still
// deterministic per (seed, partition count).
//
// The classic PHOLD benchmark model is included (phold.hpp/cpp) and the
// equivalence of the parallel and sequential engines is tested on it.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "pdes/engine.hpp"
#include "util/threadpool.hpp"

namespace dv::pdes {

class ParallelSimulator;

/// Handle through which an LP interacts with the engine during an event.
class ParallelContext {
 public:
  SimTime now() const { return now_; }
  std::uint32_t partition() const { return partition_; }
  /// Schedules an event. Same-partition targets accept any t >= now();
  /// cross-partition targets require t >= now() + pair_lookahead(this
  /// partition, target partition) (throws otherwise — that is the
  /// conservative contract).
  void schedule(SimTime t, LpId lp, std::uint32_t kind,
                std::uint64_t data0 = 0, std::uint64_t data1 = 0,
                std::uint64_t pri = 0);

 private:
  friend class ParallelSimulator;
  ParallelContext(ParallelSimulator* sim, std::uint32_t partition,
                  SimTime now)
      : sim_(sim), partition_(partition), now_(now) {}
  ParallelSimulator* sim_;
  std::uint32_t partition_;
  SimTime now_;
};

/// LP interface for the parallel engine.
class ParallelLp {
 public:
  virtual ~ParallelLp() = default;
  virtual void on_event(ParallelContext& ctx, const Event& ev) = 0;
};

class ParallelSimulator {
 public:
  /// Per-worker execution statistics, cumulative across run_until calls.
  struct WorkerStats {
    std::uint64_t events = 0;
    double busy_seconds = 0.0;   ///< wall time executing events
    double wait_seconds = 0.0;   ///< wall time waiting on peers
    std::uint64_t rounds = 0;    ///< negotiation rounds
    std::uint64_t stalls = 0;    ///< rounds that processed no event
  };

  /// `partitions` worker partitions (each gets a thread), conservative
  /// lookahead floor = `lookahead` (> 0). Every partition must own at
  /// least one LP by the time run_until is called: `partitions` larger
  /// than the LP count is rejected there (empty partitions would only
  /// idle-spin at every window edge).
  ParallelSimulator(std::size_t partitions, double lookahead);

  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  /// Registers an LP; round-robin partition assignment by default.
  LpId add_lp(ParallelLp* lp);
  LpId add_lp(ParallelLp* lp, std::uint32_t partition);

  std::size_t partitions() const { return parts_.size(); }
  double lookahead() const { return lookahead_; }
  std::uint32_t partition_of(LpId lp) const;

  /// Raises the lookahead for the directed pair (src -> dst) above the
  /// global floor: events sent from `src` to `dst` must then satisfy
  /// `t >= now + la`. Pass +infinity for pairs no channel crosses —
  /// sends there become contract violations and the pair stops
  /// constraining `dst`'s window. Must be called before any event is
  /// scheduled (it retunes dst's bucket width, which requires an empty
  /// queue). `la` must be >= lookahead(), the engine-wide floor.
  void set_pair_lookahead(std::uint32_t src, std::uint32_t dst, double la);
  double pair_lookahead(std::uint32_t src, std::uint32_t dst) const;

  /// Pre-run scheduling (any time >= 0).
  void schedule(SimTime t, LpId lp, std::uint32_t kind,
                std::uint64_t data0 = 0, std::uint64_t data1 = 0,
                std::uint64_t pri = 0);

  /// Runs until no events remain with time <= t_end.
  void run_until(SimTime t_end);

  std::uint64_t events_processed() const;
  /// True while any partition still holds pending events.
  bool has_events() const;
  /// Timestamp of the latest event processed so far (0 before any).
  SimTime last_event_time() const;
  /// Per-worker counters for bench reporting (call between runs).
  WorkerStats worker_stats(std::uint32_t p) const;

  /// Safety valve against runaway models; 0 disables. The budget is
  /// checked per partition and (approximately) globally between event
  /// batches, so overshoot by a batch per worker is possible; exceeding
  /// it throws.
  void set_event_budget(std::uint64_t max_events) { budget_ = max_events; }

 private:
  friend class ParallelContext;

  /// Mailbox for one directed partition pair. `buf` is the only field
  /// both sides touch (producer appends, consumer swap-takes, both under
  /// `mu`); `sent` is the sender-owned per-channel sequence counter that
  /// makes event order thread-timing independent.
  struct alignas(64) Channel {
    std::mutex mu;
    std::vector<Event> buf;
    std::uint64_t sent = 0;
  };

  struct alignas(64) Partition {
    BucketSched<Event> queue;  // bucket width = min finite inbound lookahead
    // Published lower bound on any event this partition will still
    // execute or send (monotone non-decreasing per run).
    std::atomic<SimTime> lb{0.0};
    std::uint64_t next_seq = 0;
    std::uint64_t processed = 0;
    SimTime last_time = 0.0;       // time of the last processed event
    std::exception_ptr error;      // worker exception, surfaced after join
    double busy_seconds = 0.0;     // wall time executing events (obs)
    double wait_seconds = 0.0;     // wall time not executing events (obs)
    std::uint64_t rounds = 0;      // negotiation rounds
    std::uint64_t stalls = 0;      // rounds with no event processed
    std::uint64_t published = 0;   // processed count already flushed to obs
    double busy_published = 0.0;
    std::uint64_t rounds_published = 0;
    std::uint64_t stalls_published = 0;
    std::uint64_t sched_bucketed_published = 0;
    std::uint64_t sched_heap_published = 0;
  };

  double la(std::uint32_t src, std::uint32_t dst) const {
    return la_[src * parts_.size() + dst];
  }
  Channel& channel(std::uint32_t src, std::uint32_t dst) {
    return channels_[src * parts_.size() + dst];
  }

  /// Single-partition fast path: with one partition no event can cross a
  /// partition boundary, so run_until drains the queue on a plain
  /// sequential loop — no negotiation, channels, or atomics — in the same
  /// (time, pri, seq) pop order.
  void run_single_partition();
  /// Worker loop for partition p. `bar` is the rendezvous barrier every
  /// worker arrives at when `sync_requested_` is raised; its completion
  /// step is sync_step().
  template <typename Barrier>
  void run_worker(std::uint32_t p, Barrier& bar);
  /// Rendezvous completion step: single-threaded while every worker is
  /// parked. Detects global termination (empty queues and
  /// channels, or nothing left at or below t_end), surfaces worker
  /// errors, enforces the global budget, and re-seeds the published
  /// bounds — jumping idle gaps the per-round lb ratchet would crawl
  /// across one lookahead at a time.
  void sync_step() noexcept;
  /// Seeds the published lower bounds with the greatest fixed point of
  /// lb[p] = min(queue_top[p], min_q(lb[q] + la(q, p))) before workers
  /// start (single-threaded Bellman-Ford relaxation).
  void seed_lower_bounds();
  /// Moves any events parked in channels into their target queues
  /// (single-threaded, after workers joined): events beyond t_end stay
  /// pending for the next run_until call.
  void drain_channels_sequential();
  /// Publishes per-worker event counts, busy time and wait time to the
  /// observability registry (deltas flushed once per run_until call).
  void publish_obs(double loop_seconds);

  std::vector<std::unique_ptr<Partition>> parts_;
  std::vector<Channel> channels_;  // parts x parts mailboxes
  std::vector<ParallelLp*> lps_;
  std::vector<std::uint32_t> lp_partition_;
  double lookahead_;
  std::vector<double> la_;  // pairwise lookahead matrix, row-major [src][dst]
  ThreadPool pool_;
  bool running_ = false;
  std::uint64_t budget_ = 0;

  // Any worker (stalled, errored, or over budget) raises this flag; every
  // worker checks it once per round and then arrives at the rendezvous
  // barrier, whose completion step is sync_step(). Mandatory arrival is
  // what makes the rendezvous deadlock-free.
  std::atomic<bool> sync_requested_{false};

  // Run horizon, and the termination flag written by sync_step() and read
  // by workers after the rendezvous — the barrier orders both.
  SimTime t_end_ = 0.0;
  bool done_ = false;
  // Atomic because workers may trip the global budget concurrently.
  std::atomic<bool> budget_exceeded_{false};
};

}  // namespace dv::pdes
