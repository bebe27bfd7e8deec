#include "pdes/parallel.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "obs/obs.hpp"

namespace dv::pdes {

namespace {

constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

// Cross-partition events carry sender-assigned sequence numbers namespaced
// above every local counter: seq = (src_partition + 1) << kForeignSeqShift
// | per-channel count. At equal (time, pri) this orders local events first,
// then foreign ones by (source partition, send order) — fully determined
// by each sender's (deterministic) execution, never by thread timing.
constexpr std::uint32_t kForeignSeqShift = 40;
constexpr std::uint64_t kLocalSeqLimit = 1ull << kForeignSeqShift;

// Consecutive no-progress rounds before a stalled worker requests a
// rendezvous. Low enough that termination and idle gaps resolve in
// microseconds, high enough that transient waits on a busy neighbour
// (the common case mid-run) never pay a barrier.
constexpr std::uint32_t kStallSyncThreshold = 64;

// Stall backoff: spin briefly (a negotiation round is sub-microsecond),
// then hand the core over — essential when workers oversubscribe the CPUs.
void backoff(std::uint32_t spins) {
  if (spins < 64) return;
  std::this_thread::yield();
}

}  // namespace

ParallelSimulator::ParallelSimulator(std::size_t partitions,
                                     double lookahead)
    : lookahead_(lookahead), pool_(partitions) {
  DV_REQUIRE(partitions >= 1, "need at least one partition");
  DV_REQUIRE(lookahead > 0.0, "conservative lookahead must be positive");
  DV_REQUIRE(partitions <= (1u << 22),
             "partition count exceeds the foreign-seq encoding");
  parts_.reserve(partitions);
  for (std::size_t i = 0; i < partitions; ++i) {
    parts_.push_back(std::make_unique<Partition>());
    // The lookahead floor is the engine's own lower bound on
    // cross-partition delays, which makes it a sound default bucket width
    // for the near-future fast path (see bucket_sched.hpp; sub-width
    // same-partition delays are still legal, just slower).
    // set_pair_lookahead() widens this per partition.
    parts_.back()->queue.configure(lookahead);
  }
  la_.assign(partitions * partitions, lookahead);
  channels_ = std::vector<Channel>(partitions * partitions);
}

LpId ParallelSimulator::add_lp(ParallelLp* lp) {
  return add_lp(lp, static_cast<std::uint32_t>(lps_.size() % parts_.size()));
}

LpId ParallelSimulator::add_lp(ParallelLp* lp, std::uint32_t partition) {
  DV_REQUIRE(lp != nullptr, "null logical process");
  DV_REQUIRE(partition < parts_.size(), "partition out of range");
  DV_REQUIRE(!running_, "cannot add LPs while running");
  lps_.push_back(lp);
  lp_partition_.push_back(partition);
  return static_cast<LpId>(lps_.size() - 1);
}

std::uint32_t ParallelSimulator::partition_of(LpId lp) const {
  DV_REQUIRE(lp < lp_partition_.size(), "unknown LP");
  return lp_partition_[lp];
}

void ParallelSimulator::set_pair_lookahead(std::uint32_t src,
                                           std::uint32_t dst, double la) {
  DV_REQUIRE(src < parts_.size() && dst < parts_.size(),
             "pair lookahead partition out of range");
  DV_REQUIRE(src != dst, "pair lookahead is for distinct partitions");
  DV_REQUIRE(!running_, "set_pair_lookahead during a run");
  DV_REQUIRE(la >= lookahead_,
             "pair lookahead below the global floor (the scalar lookahead "
             "stays the lower bound for every pair)");
  la_[src * parts_.size() + dst] = la;
  // Unify the bucket horizon with the partition's effective window: the
  // narrowest finite inbound lookahead bounds how far ahead of the global
  // clock dst can run, so it is the natural bucket width. Requires dst's
  // queue to still be empty (BucketSched::configure enforces it).
  double width = kInf;
  for (std::uint32_t q = 0; q < parts_.size(); ++q) {
    if (q == dst) continue;
    width = std::min(width, la_[q * parts_.size() + dst]);
  }
  if (!std::isfinite(width)) width = lookahead_;
  parts_[dst]->queue.configure(width);
}

double ParallelSimulator::pair_lookahead(std::uint32_t src,
                                         std::uint32_t dst) const {
  DV_REQUIRE(src < parts_.size() && dst < parts_.size(),
             "pair lookahead partition out of range");
  return la_[src * parts_.size() + dst];
}

void ParallelSimulator::schedule(SimTime t, LpId lp, std::uint32_t kind,
                                 std::uint64_t data0, std::uint64_t data1,
                                 std::uint64_t pri) {
  DV_REQUIRE(!running_, "use ParallelContext::schedule during the run");
  DV_REQUIRE(lp < lps_.size(), "schedule to unknown LP");
  DV_REQUIRE(t >= 0.0, "negative timestamp");
  Partition& part = *parts_[lp_partition_[lp]];
  part.queue.push(Event{.time = t, .pri = pri, .seq = part.next_seq++,
                        .lp = lp, .kind = kind, .data0 = data0,
                        .data1 = data1});
}

void ParallelContext::schedule(SimTime t, LpId lp, std::uint32_t kind,
                               std::uint64_t data0, std::uint64_t data1,
                               std::uint64_t pri) {
  DV_REQUIRE(lp < sim_->lps_.size(), "schedule to unknown LP");
  DV_REQUIRE(t >= now_, "cannot schedule into the past");
  const std::uint32_t target = sim_->lp_partition_[lp];
  ParallelSimulator::Partition& mine = *sim_->parts_[partition_];
  if (target == partition_) {
    mine.queue.push(Event{.time = t, .pri = pri, .seq = mine.next_seq++,
                          .lp = lp, .kind = kind, .data0 = data0,
                          .data1 = data1});
    return;
  }
  // Conservative contract: cross-partition events must clear the pairwise
  // lookahead (+infinity marks pairs no channel crosses — any send there
  // is a model bug).
  DV_REQUIRE(t >= now_ + sim_->la(partition_, target),
             "cross-partition event violates the pairwise lookahead "
             "contract");
  // The sender stamps the deterministic sequence number and mails the
  // event directly; the receiver drains the channel on its next
  // negotiation round.
  auto& ch = sim_->channel(partition_, target);
  const std::uint64_t seq =
      (static_cast<std::uint64_t>(partition_) + 1) << kForeignSeqShift |
      ch.sent++;
  std::lock_guard<std::mutex> lock(ch.mu);
  ch.buf.push_back(Event{.time = t, .pri = pri, .seq = seq, .lp = lp,
                         .kind = kind, .data0 = data0, .data1 = data1});
}

void ParallelSimulator::run_single_partition() {
  // One partition owns every LP, so no event can cross a partition
  // boundary and negotiation degenerates to "drain the queue in
  // (time, pri, seq) order" — exactly the sequential engine's loop.
  Partition& part = *parts_[0];
#ifdef DV_OBS_ENABLED
  const auto t0 = std::chrono::steady_clock::now();
#endif
  try {
    Event ev;
    while (!part.queue.empty() && part.queue.top().time <= t_end_) {
      part.queue.pop_into(ev);
      ++part.processed;
      if (budget_ != 0 && part.processed > budget_) {
        throw Error("simulation event budget exceeded");
      }
      part.last_time = ev.time;
      ParallelContext ctx(this, 0, ev.time);
      lps_[ev.lp]->on_event(ctx, ev);
    }
  } catch (...) {
    part.error = std::current_exception();
  }
#ifdef DV_OBS_ENABLED
  part.busy_seconds += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
#endif
}

void ParallelSimulator::seed_lower_bounds() {
  const std::size_t n = parts_.size();
  std::vector<SimTime> lb(n);
  for (std::size_t p = 0; p < n; ++p) {
    lb[p] = parts_[p]->queue.empty() ? kInf : parts_[p]->queue.top().time;
  }
  // Greatest fixed point of lb[p] = min(qtop[p], min_q(lb[q] + la(q, p))):
  // values only decrease and every pass propagates one more hop, so at
  // most n-1 passes settle it (standard Bellman-Ford argument; positive
  // lookaheads keep it bounded below by the global minimum queue top).
  for (std::size_t pass = 1; pass < n; ++pass) {
    bool changed = false;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = 0; q < n; ++q) {
        if (q == p) continue;
        const double d = la_[q * n + p];
        if (!std::isfinite(d)) continue;
        const SimTime v = lb[q] + d;
        if (v < lb[p]) {
          lb[p] = v;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  for (std::size_t p = 0; p < n; ++p) {
    parts_[p]->lb.store(lb[p], std::memory_order_relaxed);
  }
}

void ParallelSimulator::sync_step() noexcept {
  // Runs single-threaded with every worker parked at the rendezvous
  // barrier (the completion step), so plain queue/channel access is safe.
  // This is the rare-path complement to the barrier-free rounds: it
  // detects global termination (which pure lb-ratcheting can only
  // approach asymptotically when queues drain), surfaces worker errors,
  // enforces the global event budget, and re-seeds the published bounds
  // at the Bellman-Ford fixed point — jumping idle gaps that the +la
  // per-round ratchet would crawl across.
  try {
    for (const auto& part : parts_) {
      if (part->error) {
        done_ = true;
        return;
      }
    }
    drain_channels_sequential();
    if (budget_ != 0 && events_processed() > budget_) {
      budget_exceeded_.store(true, std::memory_order_relaxed);
      done_ = true;
      return;
    }
    SimTime gvt = kInf;
    for (const auto& part : parts_) {
      if (!part->queue.empty()) gvt = std::min(gvt, part->queue.top().time);
    }
    if (!std::isfinite(gvt) || gvt > t_end_) {
      done_ = true;
      return;
    }
    seed_lower_bounds();
    sync_requested_.store(false, std::memory_order_release);
  } catch (...) {
    if (!parts_[0]->error) parts_[0]->error = std::current_exception();
    done_ = true;
  }
}

template <typename Barrier>
void ParallelSimulator::run_worker(std::uint32_t p, Barrier& bar) {
  const std::uint32_t n = static_cast<std::uint32_t>(parts_.size());
  Partition& part = *parts_[p];
  // The horizon is inclusive (events at exactly t_end run), so the safe
  // bound is capped just above it; queue pops still require time < safe.
  const SimTime cap =
      std::nextafter(t_end_, std::numeric_limits<SimTime>::infinity());
  std::vector<Event> taken;
  std::uint32_t spins = 0;
  std::uint32_t idle_rounds = 0;  // consecutive rounds with no progress
#ifdef DV_OBS_ENABLED
  const auto loop_t0 = std::chrono::steady_clock::now();
  const double busy_at_entry = part.busy_seconds;
#endif
  try {
    for (;;) {
      ++part.rounds;
      // (1) Read every in-neighbour's published bound *before* draining
      // its channel. An event still missing after the drain in (2) was
      // mailed after the publish of the value read here (the sender
      // publishes only after mailing, and the mail is visible once its
      // bound is), so its timestamp is >= that value + the pairwise
      // lookahead — exactly what `safe` assumes. Draining first would
      // break this.
      SimTime safe = cap;
      for (std::uint32_t q = 0; q < n; ++q) {
        if (q == p) continue;
        const double d = la_[q * n + p];
        if (!std::isfinite(d)) continue;
        safe = std::min(
            safe, parts_[q]->lb.load(std::memory_order_acquire) + d);
      }
      // (2) Drain inbound channels into the local queue.
      for (std::uint32_t q = 0; q < n; ++q) {
        if (q == p || !std::isfinite(la_[q * n + p])) continue;
        Channel& ch = channel(q, p);
        {
          std::lock_guard<std::mutex> lock(ch.mu);
          if (!ch.buf.empty()) ch.buf.swap(taken);
        }
        for (const Event& ev : taken) part.queue.push(ev);
        taken.clear();
      }
      // (3) Execute everything below the negotiated window.
      bool progressed = false;
      if (!part.queue.empty() && part.queue.top().time < safe) {
#ifdef DV_OBS_ENABLED
        const auto t0 = std::chrono::steady_clock::now();
#endif
        Event ev;
        do {
          part.queue.pop_into(ev);
          ++part.processed;
          if (budget_ != 0 && part.processed > budget_) {
            throw Error("simulation event budget exceeded");
          }
          part.last_time = ev.time;
          ParallelContext ctx(this, p, ev.time);
          lps_[ev.lp]->on_event(ctx, ev);
        } while (!part.queue.empty() && part.queue.top().time < safe);
        progressed = true;
#ifdef DV_OBS_ENABLED
        part.busy_seconds += std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
#endif
      }
      // (4) Republish this partition's bound: nothing below
      // min(queue top, safe) can ever be executed here or mailed from
      // here (sends add at least the pairwise lookahead on top of `now`).
      // Monotone by construction: `safe` only grows (neighbour bounds
      // are monotone) and arrivals are bounded below by the previous
      // `safe`.
      const SimTime qtop =
          part.queue.empty() ? kInf : part.queue.top().time;
      part.lb.store(std::min(qtop, safe), std::memory_order_release);
      if (progressed) {
        spins = idle_rounds = 0;
        continue;
      }
      ++part.stalls;
      // A long stall means either the run is over, the model is in an
      // idle gap the ratchet would crawl across, or a peer errored out —
      // all cases the rendezvous completion step resolves.
      if (++idle_rounds >= kStallSyncThreshold) {
        sync_requested_.store(true, std::memory_order_release);
      }
      // A requested rendezvous is honoured only from a *stalled* round: a
      // progressing worker keeps working (the raiser is parked and would
      // be waiting either way), so every rendezvous cycle advances the
      // GVT holder by a full window — arriving from the loop top instead
      // can starve a worker that is runnable but descheduled whenever a
      // peer re-raises the flag faster than the OS reschedules it (seen
      // on 1-core hosts). Deadlock-free: a worker that stops progressing
      // checks the flag on that very round, and a worker that never
      // stalls never blocks anyone who is parked.
      if (sync_requested_.load(std::memory_order_acquire)) {
        bar.arrive_and_wait();
        if (done_) break;
        spins = idle_rounds = 0;
        continue;
      }
      backoff(++spins);
    }
  } catch (...) {
    // Park at the rendezvous so nobody waits on us: the completion step
    // sees the error (published before we arrive) and flags done.
    part.error = std::current_exception();
    sync_requested_.store(true, std::memory_order_release);
    for (;;) {
      bar.arrive_and_wait();
      if (done_) break;
    }
  }
#ifdef DV_OBS_ENABLED
  const double loop_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    loop_t0)
          .count();
  const double wait = loop_seconds - (part.busy_seconds - busy_at_entry);
  if (wait > 0.0) part.wait_seconds += wait;
#endif
}

void ParallelSimulator::drain_channels_sequential() {
  const std::size_t n = parts_.size();
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      Channel& ch = channels_[src * n + dst];
      std::lock_guard<std::mutex> lock(ch.mu);
      for (const Event& ev : ch.buf) parts_[dst]->queue.push(ev);
      ch.buf.clear();
    }
  }
}

// ------------------------------------------------------------------ run

void ParallelSimulator::publish_obs(double loop_seconds) {
#ifdef DV_OBS_ENABLED
  std::uint64_t total = 0;
  double busy = 0.0;
  std::uint64_t sched_bucketed = 0, sched_heap = 0;
  std::uint64_t rounds = 0, stalls = 0;
  for (std::uint32_t p = 0; p < parts_.size(); ++p) {
    Partition& part = *parts_[p];
    const std::uint64_t ev_delta = part.processed - part.published;
    const double busy_delta = part.busy_seconds - part.busy_published;
    part.published = part.processed;
    part.busy_published = part.busy_seconds;
    total += ev_delta;
    busy += busy_delta;
    rounds += part.rounds - part.rounds_published;
    stalls += part.stalls - part.stalls_published;
    part.rounds_published = part.rounds;
    part.stalls_published = part.stalls;
    sched_bucketed +=
        part.queue.pushes_bucketed() - part.sched_bucketed_published;
    sched_heap += part.queue.pushes_heap() - part.sched_heap_published;
    part.sched_bucketed_published = part.queue.pushes_bucketed();
    part.sched_heap_published = part.queue.pushes_heap();
    obs::counter("par.worker" + std::to_string(p) + ".events").add(ev_delta);
    obs::gauge("par.worker" + std::to_string(p) + ".busy_seconds")
        .add(busy_delta);
  }
  obs::counter("par.events_processed").add(total);
  obs::counter("par.sched.bucket_pushes").add(sched_bucketed);
  obs::counter("par.sched.heap_pushes").add(sched_heap);
  // Negotiation rounds across workers, and how many of them made no
  // progress (a stall = one spin/yield waiting for an in-neighbour's bound
  // to move).
  obs::counter("par.window.rounds").add(rounds);
  obs::counter("par.window.stalls").add(stalls);
  obs::gauge("par.run_seconds").add(loop_seconds);
  // Total wait: the span the whole run spends not executing events,
  // summed over workers (stall spins and rendezvous).
  const double wait = loop_seconds * static_cast<double>(parts_.size()) - busy;
  if (wait > 0.0) obs::gauge("par.barrier_wait_seconds").add(wait);
#else
  (void)loop_seconds;
#endif
}

void ParallelSimulator::run_until(SimTime t_end) {
  DV_REQUIRE(lps_.size() >= parts_.size(),
             "more partitions than LPs (" + std::to_string(parts_.size()) +
                 " > " + std::to_string(lps_.size()) +
                 "): every partition must own at least one LP — lower the "
                 "partition count to at most the LP count");
  running_ = true;
  const auto loop_t0 = std::chrono::steady_clock::now();
  t_end_ = t_end;
  done_ = false;
  budget_exceeded_.store(false, std::memory_order_relaxed);
  sync_requested_.store(false, std::memory_order_relaxed);
  for (auto& part : parts_) part->error = nullptr;

  // Skip worker launch when nothing is due.
  SimTime gvt = kInf;
  for (const auto& part : parts_) {
    if (!part->queue.empty()) gvt = std::min(gvt, part->queue.top().time);
  }
  if (parts_.size() == 1) {
    run_single_partition();
  } else if (gvt <= t_end_) {
    for (const auto& part : parts_) {
      DV_CHECK(part->next_seq < kLocalSeqLimit,
               "local event sequence overflowed into the foreign range");
    }
    seed_lower_bounds();
    std::barrier bar(static_cast<std::ptrdiff_t>(parts_.size()),
                     [this]() noexcept { sync_step(); });
    for (std::uint32_t p = 0; p < parts_.size(); ++p) {
      pool_.submit([this, p, &bar] { run_worker(p, bar); });
    }
    pool_.wait_idle();
    // Belt and braces: the terminating rendezvous drained every channel,
    // but future exits must never strand mailed events — has_events() and
    // repeated run_until ticks rely on it.
    drain_channels_sequential();
  }

  running_ = false;
  for (const auto& part : parts_) {
    if (part->error) std::rethrow_exception(part->error);
  }
  if (budget_exceeded_.load(std::memory_order_relaxed)) {
    throw Error("simulation event budget exceeded");
  }
  publish_obs(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            loop_t0)
                  .count());
}

std::uint64_t ParallelSimulator::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& part : parts_) total += part->processed;
  return total;
}

bool ParallelSimulator::has_events() const {
  for (const auto& part : parts_) {
    if (!part->queue.empty()) return true;
  }
  return false;
}

SimTime ParallelSimulator::last_event_time() const {
  SimTime t = 0.0;
  for (const auto& part : parts_) t = std::max(t, part->last_time);
  return t;
}

ParallelSimulator::WorkerStats ParallelSimulator::worker_stats(
    std::uint32_t p) const {
  DV_REQUIRE(p < parts_.size(), "worker index out of range");
  const Partition& part = *parts_[p];
  return WorkerStats{part.processed, part.busy_seconds, part.wait_seconds,
                     part.rounds, part.stalls};
}

}  // namespace dv::pdes
