#include "netsim/network.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace dv::netsim {

namespace {
// Partition executing the current parallel event on this thread, -1 when
// running sequentially. Lets depth() assert the conservative contract:
// adaptive routing may only probe queues its own partition owns.
thread_local std::int32_t t_active_partition = -1;
}  // namespace

// ----------------------------------------------------------------- Params

void Params::validate() const {
  DV_REQUIRE(terminal_bandwidth > 0 && local_bandwidth > 0 &&
                 global_bandwidth > 0,
             "bandwidths must be positive");
  DV_REQUIRE(terminal_latency > 0 && local_latency > 0 && global_latency > 0,
             "link latencies must be positive (zero latencies break both "
             "saturation accounting and the parallel lookahead)");
  DV_REQUIRE(router_delay >= 0, "router delay must be non-negative");
  DV_REQUIRE(credit_latency > 0,
             "credit latency must be positive (it bounds the conservative "
             "lookahead window)");
  DV_REQUIRE(packet_size > 0, "packet size must be positive");
  DV_REQUIRE(vc_buffer_packets > 0, "vc buffer must hold at least one packet");
  DV_REQUIRE(fault_retry_base > 0,
             "fault retry backoff base must be positive");
}

// ----------------------------------------------------------------- LinkArray

void Network::LinkArray::init(std::size_t links, std::uint32_t vcs_per_link,
                              std::int32_t initial_credits) {
  vcs = vcs_per_link;
  credits.assign(links * vcs, initial_credits);
  zero_since.assign(links * vcs, 0.0);
  closed_sat.assign(links, 0.0);
  open_zero.assign(links, 0);
  open_since_sum.assign(links, 0.0);
  traffic.assign(links, 0.0);
  backlog.assign(links, 0);
  backlog_since.assign(links, 0.0);
  retries.assign(links, 0);
  drops.assign(links, 0);
}

void Network::LinkArray::set_backlog(std::uint32_t link, bool full,
                                     SimTime now) {
  if (full == static_cast<bool>(backlog[link])) return;
  if (full) {
    backlog[link] = 1;
    backlog_since[link] = now;
    ++open_zero[link];
    open_since_sum[link] += now;
  } else {
    backlog[link] = 0;
    closed_sat[link] += now - backlog_since[link];
    DV_CHECK(open_zero[link] > 0, "backlog bookkeeping underflow");
    --open_zero[link];
    open_since_sum[link] -= backlog_since[link];
  }
}

bool Network::LinkArray::has_credit(std::uint32_t link, std::uint32_t vc) const {
  return credits[link * vcs + vc] > 0;
}

void Network::LinkArray::take_credit(std::uint32_t link, std::uint32_t vc,
                                     SimTime now) {
  const std::size_t idx = link * vcs + vc;
  DV_CHECK(credits[idx] > 0, "taking credit from an empty pool");
  if (--credits[idx] == 0) {
    zero_since[idx] = now;
    ++open_zero[link];
    open_since_sum[link] += now;
  }
}

void Network::LinkArray::give_credit(std::uint32_t link, std::uint32_t vc,
                                     SimTime now) {
  const std::size_t idx = link * vcs + vc;
  if (credits[idx] == 0) {
    closed_sat[link] += now - zero_since[idx];
    DV_CHECK(open_zero[link] > 0, "credit bookkeeping underflow");
    --open_zero[link];
    open_since_sum[link] -= zero_since[idx];
  }
  ++credits[idx];
}

double Network::LinkArray::sat_at(std::uint32_t link, SimTime now) const {
  return closed_sat[link] +
         static_cast<double>(open_zero[link]) * now - open_since_sum[link];
}

// ----------------------------------------------------------------- encoding

std::uint64_t Network::encode_link(LinkClass c, std::uint32_t id,
                                   std::uint32_t vc) {
  return (static_cast<std::uint64_t>(c) << 48) |
         (static_cast<std::uint64_t>(vc) << 40) | id;
}

Network::LinkClass Network::link_class(std::uint64_t enc) {
  return static_cast<LinkClass>(enc >> 48);
}

std::uint32_t Network::link_id(std::uint64_t enc) {
  return static_cast<std::uint32_t>(enc & 0xffffffffULL);
}

std::uint32_t Network::link_vc(std::uint64_t enc) {
  return static_cast<std::uint32_t>((enc >> 40) & 0xff);
}

// ----------------------------------------------------------------- setup

Network::Network(const topo::Dragonfly& topo, routing::Algo algo,
                 Params params, std::uint64_t seed)
    : topo_(topo), params_(params),
      planner_(topo_, algo, params.adaptive, seed), seed_(seed) {
  params_.validate();
  ports_per_router_ = topo_.ports_per_router();
  ports_.resize(static_cast<std::size_t>(topo_.num_routers()) *
                ports_per_router_);
  terminals_.resize(topo_.num_terminals());
  term_finished_.assign(topo_.num_terminals(), 0);
  term_sum_latency_.assign(topo_.num_terminals(), 0.0);
  term_sum_hops_.assign(topo_.num_terminals(), 0.0);
  term_rerouted_.assign(topo_.num_terminals(), 0);
  term_dropped_.assign(topo_.num_terminals(), 0);
  term_job_.assign(topo_.num_terminals(), -1);

  hop_cache_.reserve(ports_.size());
  for (std::uint32_t r = 0; r < topo_.num_routers(); ++r) {
    for (std::uint32_t p = 0; p < ports_per_router_; ++p) {
      hop_cache_.push_back(compute_hop(r, p));
    }
  }

  num_vcs_ = planner_.max_link_hops();
  const auto buf = static_cast<std::int32_t>(params_.vc_buffer_packets);
  local_links_.init(topo_.num_local_links(), num_vcs_, buf);
  global_links_.init(topo_.num_global_links(), num_vcs_, buf);
  injection_.init(topo_.num_terminals(), 1, buf);
  ejection_.init(topo_.num_terminals(), 1, buf);

  // Entity random streams: Valiant/UGAL draws happen at injection from the
  // terminal's stream, PAR diverts from the router's stream — so route
  // randomness is a function of (seed, entity, per-entity order), never of
  // engine interleaving.
  term_rng_.reserve(topo_.num_terminals());
  for (std::uint32_t t = 0; t < topo_.num_terminals(); ++t) {
    term_rng_.emplace_back(seed, (1ULL << 32) + t);
  }
  router_rng_.reserve(topo_.num_routers());
  for (std::uint32_t r = 0; r < topo_.num_routers(); ++r) {
    router_rng_.emplace_back(seed, (2ULL << 32) + r);
  }
  term_pkt_seq_.assign(topo_.num_terminals(), 0);
  router_partition_.assign(topo_.num_routers(), 0);

  // One LP per router on the sequential engine too, so event streams carry
  // the same LP ids as the parallel decomposition.
  for (std::uint32_t r = 0; r < topo_.num_routers(); ++r) {
    sim_.add_lp(this);
  }
  if (params_.event_budget) sim_.set_event_budget(params_.event_budget);
  // The conservative lookahead is the model's minimum physical delay, the
  // natural bucket width; the rare shorter delay (serialization of a short
  // tail packet) takes the bucket layer's ordered-insert slow path. 512
  // buckets (a ~10 us horizon at default latencies) measured fastest on
  // bench_perf_core: a wider horizon spreads the same events over more,
  // colder buckets, a narrower one spills too many pushes to the heap.
  sim_.set_bucket_granularity(lookahead(), 512);
  if constexpr (obs::kEnabled) {
    sim_.set_kind_label(kEvMsgStart, "msg_start");
    sim_.set_kind_label(kEvInjectorFree, "injector_free");
    sim_.set_kind_label(kEvPktAtRouter, "pkt_at_router");
    sim_.set_kind_label(kEvPktAtTerminal, "pkt_at_terminal");
    sim_.set_kind_label(kEvPortFree, "port_free");
    sim_.set_kind_label(kEvCredit, "credit");
    sim_.set_kind_label(kEvPktRetry, "pkt_retry");
    sim_.set_kind_label(kEvFaultWake, "fault_wake");
    sim_.set_kind_label(kEvPktDropNotify, "pkt_drop_notify");
  }
}

void Network::add_message(const Message& m) {
  DV_REQUIRE(!ran_, "add_message after run()");
  DV_REQUIRE(m.src_terminal < topo_.num_terminals() &&
                 m.dst_terminal < topo_.num_terminals(),
             "message terminal out of range");
  DV_REQUIRE(m.src_terminal != m.dst_terminal,
             "self-messages never enter the network");
  DV_REQUIRE(m.bytes > 0, "empty message");
  DV_REQUIRE(m.time >= 0.0, "negative message time");
  messages_.push_back(m);
}

void Network::add_messages(const std::vector<Message>& ms) {
  for (const auto& m : ms) add_message(m);
}

void Network::set_labels(std::string workload, std::string placement,
                         std::vector<std::string> job_names) {
  workload_label_ = std::move(workload);
  placement_label_ = std::move(placement);
  job_names_ = std::move(job_names);
}

void Network::set_jobs(const placement::Placement& placement) {
  DV_REQUIRE(placement.job_of.size() == term_job_.size(),
             "placement size mismatch");
  term_job_ = placement.job_of;
}

void Network::enable_sampling(double dt) {
  DV_REQUIRE(!ran_, "enable_sampling after run()");
  DV_REQUIRE(dt > 0.0, "sampling interval must be positive");
  sample_dt_ = dt;
  local_traffic_ts_ = metrics::SampledSeries(topo_.num_local_links(), dt);
  local_sat_ts_ = metrics::SampledSeries(topo_.num_local_links(), dt);
  global_traffic_ts_ = metrics::SampledSeries(topo_.num_global_links(), dt);
  global_sat_ts_ = metrics::SampledSeries(topo_.num_global_links(), dt);
  term_traffic_ts_ = metrics::SampledSeries(topo_.num_terminals(), dt);
  term_sat_ts_ = metrics::SampledSeries(topo_.num_terminals(), dt);
  prev_local_traffic_.assign(topo_.num_local_links(), 0.0);
  prev_local_sat_.assign(topo_.num_local_links(), 0.0);
  prev_global_traffic_.assign(topo_.num_global_links(), 0.0);
  prev_global_sat_.assign(topo_.num_global_links(), 0.0);
  prev_term_traffic_.assign(topo_.num_terminals(), 0.0);
  prev_term_sat_.assign(topo_.num_terminals(), 0.0);
}

void Network::set_fault_plan(const fault::FaultPlan& plan) {
  DV_REQUIRE(!ran_, "set_fault_plan after run()");
  if (plan.empty()) return;  // bit-identical to never calling this
  fault_ = fault::FaultTimeline(topo_, plan);
  has_faults_ = true;
  planner_.set_fault_aware(true);
  // A detoured minimal packet takes a Valiant-length path, so the planner's
  // hop bound (== VC count) may grow. No credits have been handed out yet
  // (run() hasn't started), so re-initializing the pools is safe.
  if (planner_.max_link_hops() != num_vcs_) {
    num_vcs_ = planner_.max_link_hops();
    const auto buf = static_cast<std::int32_t>(params_.vc_buffer_packets);
    local_links_.init(topo_.num_local_links(), num_vcs_, buf);
    global_links_.init(topo_.num_global_links(), num_vcs_, buf);
  }
  router_retries_.assign(topo_.num_routers(), 0);
  router_drops_.assign(topo_.num_routers(), 0);
}

void Network::set_parallel(std::uint32_t workers) {
  DV_REQUIRE(!ran_, "set_parallel after run()");
  DV_REQUIRE(workers >= 1,
             "--parallel must be at least 1 (1 = sequential engine)");
  parallel_ = workers;
}

double Network::lookahead() const {
  return std::min(params_.credit_latency,
                  std::min(params_.local_latency, params_.global_latency));
}

std::uint32_t Network::resolve_partitions() const {
  // One partition must own whole groups (the LP map is group-contiguous)
  // and the packet-id encoding carries 6 shard bits.
  return std::min({parallel_, topo_.groups(), 64u});
}

// ----------------------------------------------------------------- arena

void Network::init_shards(std::uint32_t count) {
  // Every in-flight packet holds exactly one buffer credit, so the live
  // packet count is bounded by the total credit pool. Reserving the chunk
  // table to that bound means it never reallocates mid-run — which is what
  // makes cross-partition packet(pid) lookups safe without a lock.
  const std::uint64_t slots =
      static_cast<std::uint64_t>(local_links_.credits.size() +
                                 global_links_.credits.size() +
                                 injection_.credits.size() +
                                 ejection_.credits.size()) *
      params_.vc_buffer_packets;
  const std::size_t max_chunks =
      static_cast<std::size_t>(slots >> kChunkShift) + 2;
  shards_.clear();
  shards_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->chunks.reserve(max_chunks);
    shards_.push_back(std::move(sh));
  }
}

std::uint32_t Network::alloc_packet(std::uint32_t shard_id) {
  Shard& sh = *shards_[shard_id];
  if (sh.free_list.empty()) {
    // Reclaim ids freed by other partitions (lock-free MPSC stack: they
    // push with CAS, only we pop, and we take the whole chain at once).
    std::uint32_t head =
        sh.remote_free.exchange(kNilIndex, std::memory_order_acquire);
    while (head != kNilIndex) {
      sh.free_list.push_back(head);
      head = sh.chunks[head >> kChunkShift][head & (kChunkSize - 1)].next_free;
    }
  }
  std::uint32_t idx;
  if (!sh.free_list.empty()) {
    idx = sh.free_list.back();
    sh.free_list.pop_back();
  } else {
    idx = sh.allocated++;
    DV_CHECK(idx <= kIndexMask, "packet arena exhausted");
    if ((idx >> kChunkShift) >= sh.chunks.size()) {
      DV_CHECK(sh.chunks.size() < sh.chunks.capacity(),
               "packet arena exceeded the in-flight credit bound");
      sh.chunks.push_back(std::make_unique<Packet[]>(kChunkSize));
    }
  }
  Packet& pkt = sh.chunks[idx >> kChunkShift][idx & (kChunkSize - 1)];
  pkt = Packet{};
  return (shard_id << kShardShift) | idx;
}

void Network::free_packet(std::uint32_t current_shard, std::uint32_t pid) {
  const std::uint32_t owner = pid >> kShardShift;
  const std::uint32_t idx = pid & kIndexMask;
  Shard& sh = *shards_[owner];
  if (owner == current_shard) {
    sh.free_list.push_back(idx);
    return;
  }
  Packet& pkt = sh.chunks[idx >> kChunkShift][idx & (kChunkSize - 1)];
  std::uint32_t head = sh.remote_free.load(std::memory_order_relaxed);
  do {
    pkt.next_free = head;
  } while (!sh.remote_free.compare_exchange_weak(
      head, idx, std::memory_order_release, std::memory_order_relaxed));
}

Network::OutPort& Network::port(std::uint32_t router, std::uint32_t p) {
  return ports_[static_cast<std::size_t>(router) * ports_per_router_ + p];
}

double Network::depth(std::uint32_t router, std::uint32_t p) const {
  DV_CHECK(t_active_partition < 0 ||
               router_partition_[router] ==
                   static_cast<std::uint32_t>(t_active_partition),
           "adaptive probe read a queue outside its own partition");
  const auto& op =
      ports_[static_cast<std::size_t>(router) * ports_per_router_ + p];
  return static_cast<double>(op.queue.size()) + (op.busy ? 1.0 : 0.0);
}

bool Network::port_blocked(std::uint32_t router, std::uint32_t p,
                           double now) const {
  if (!has_faults_) return false;
  if (fault_.router_down(router, now)) return true;
  const Hop& hop = hop_for_port(router, p);
  switch (hop.cls) {
    case LinkClass::kEjection:
      return false;  // terminal NICs don't fail in this model
    case LinkClass::kLocal:
      return fault_.local_link_down(hop.id, now) ||
             fault_.router_down(hop.dst_router, now);
    case LinkClass::kGlobal:
      return fault_.global_link_down(hop.id, now) ||
             fault_.router_down(hop.dst_router, now);
    default:
      return false;
  }
}

// ----------------------------------------------------------------- hops

Network::Hop Network::compute_hop(std::uint32_t router,
                                  std::uint32_t p) const {
  Hop hop;
  const std::uint32_t nterm = topo_.terminals_per_router();
  const std::uint32_t nlocal = topo_.routers_per_group() - 1;
  if (p < nterm) {
    hop.cls = LinkClass::kEjection;
    hop.dst_terminal = topo_.terminal_id(router, p);
    hop.id = hop.dst_terminal;
    hop.bandwidth = params_.terminal_bandwidth;
    hop.latency = params_.terminal_latency;
    return hop;
  }
  if (p < nterm + nlocal) {
    const std::uint32_t lport = p - nterm;
    const std::uint32_t nrank =
        topo_.local_neighbor(topo_.router_rank(router), lport);
    hop.cls = LinkClass::kLocal;
    hop.dst_router = topo_.router_id(topo_.router_group(router), nrank);
    hop.dst_port =
        nterm + (topo_.local_port(nrank, topo_.router_rank(router)) - nterm);
    hop.id = topo_.local_link_id(router, lport);
    hop.bandwidth = params_.local_bandwidth;
    hop.latency = params_.local_latency;
    return hop;
  }
  const std::uint32_t channel = p - nterm - nlocal;
  const topo::GlobalEnd ge = topo_.global_neighbor(router, channel);
  hop.cls = LinkClass::kGlobal;
  hop.dst_router = ge.router;
  hop.dst_port = topo_.global_port(ge.channel);
  hop.id = topo_.global_link_id(router, channel);
  hop.bandwidth = params_.global_bandwidth;
  hop.latency = params_.global_latency;
  return hop;
}

// ----------------------------------------------------------------- injection

void Network::try_inject(Ctx& ctx, std::uint32_t term) {
  TerminalState& ts = terminals_[term];
  if (ts.injector_busy || ts.pending.empty()) return;
  if (has_faults_ &&
      fault_.router_down(topo_.terminal_router(term), ctx.now)) {
    return;  // re-attempted at the router's revival wake
  }
  if (!injection_.has_credit(term, 0)) return;  // retried on credit return

  const SimTime now = ctx.now;
  Shard& sh = *shards_[ctx.shard];
  MsgProgress& msg = ts.pending.front();
  const std::uint32_t size = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(params_.packet_size, msg.remaining));

  const std::uint32_t pid = alloc_packet(ctx.shard);
  Packet& pkt = packet(pid);
  pkt.src = term;
  pkt.dst = msg.dst;
  pkt.size = size;
  pkt.job = msg.job;
  // Latency is measured from the application's send time, so source-side
  // queueing (the dominant cost under congestion) is included — this is
  // what makes per-job "application performance" comparable across
  // placements as in Fig. 13d.
  pkt.inject_time = msg.issue_time;
  // Injections at a terminal are totally ordered, so this uid is the same
  // on both engines — it keys every event the packet generates.
  pkt.uid = (static_cast<std::uint64_t>(term) << 32) | term_pkt_seq_[term]++;
  pkt.route.dst_terminal = msg.dst;
  planner_.on_inject(pkt.route, term, *this, term_rng_[term], sh.route_stats,
                     now);
  pkt.in_link = encode_link(LinkClass::kInjection, term, 0);

  injection_.take_credit(term, 0, now);
  injection_.traffic[term] += size;
  ++sh.packets_injected;
  sh.bytes_injected += size;

  msg.remaining -= size;
  if (msg.remaining == 0) {
    ts.pending.pop_front();
    ++sh.msgs_finished;
  }
  ++sh.in_flight;

  const double ser = static_cast<double>(size) / params_.terminal_bandwidth;
  ts.injector_busy = true;
  const pdes::LpId lp = lp_of_terminal(term);
  ctx.schedule_in(ser, lp, kEvInjectorFree, term, 0,
                  pri_key(kEvInjectorFree, term));
  ctx.schedule_in(ser + params_.terminal_latency + params_.router_delay, lp,
                  kEvPktAtRouter, pid, topo_.terminal_router(term),
                  pri_key(kEvPktAtRouter, pkt.uid));
}

// ----------------------------------------------------------------- transit

Network::LinkArray& Network::link_array_for(LinkClass cls) {
  switch (cls) {
    case LinkClass::kEjection: return ejection_;
    case LinkClass::kLocal: return local_links_;
    case LinkClass::kGlobal: return global_links_;
    default: break;
  }
  throw Error("no link array for this link class");
}

void Network::update_backlog(Ctx& ctx, std::uint32_t router, std::uint32_t p) {
  const Hop& hop = hop_for_port(router, p);
  LinkArray& la = link_array_for(hop.cls);
  la.set_backlog(hop.id,
                 port(router, p).queue.size() >= params_.vc_buffer_packets,
                 ctx.now);
}

void Network::try_transmit(Ctx& ctx, std::uint32_t router, std::uint32_t p) {
  OutPort& op = port(router, p);
  if (op.busy || op.queue.empty()) return;
  if (has_faults_ && port_blocked(router, p, ctx.now)) {
    return;  // queued packets bounce into the retry path at the next wake
  }

  const Hop& hop = hop_for_port(router, p);
  LinkArray& la = link_array_for(hop.cls);

  // VC arbitration: first queued packet whose VC has a downstream slot.
  std::size_t pick = op.queue.size();
  std::uint32_t vc = 0;
  for (std::size_t i = 0; i < op.queue.size(); ++i) {
    const Packet& cand = packet(op.queue[i]);
    const std::uint32_t cvc =
        hop.cls == LinkClass::kEjection ? 0u : cand.link_hops;
    if (la.has_credit(hop.id, cvc)) {
      pick = i;
      vc = cvc;
      break;
    }
  }
  if (pick == op.queue.size()) return;  // all VCs full; retried on credit

  const std::uint32_t pid = op.queue[pick];
  op.queue.erase_at(pick);
  la.set_backlog(hop.id, op.queue.size() >= params_.vc_buffer_packets,
                 ctx.now);
  Packet& pkt = packet(pid);
  const SimTime now = ctx.now;

  la.take_credit(hop.id, vc, now);
  la.traffic[hop.id] += pkt.size;
  return_credit(ctx, pkt.in_link);  // upstream buffer slot frees as we depart
  pkt.in_link = encode_link(hop.cls, hop.id, vc);
  if (hop.cls != LinkClass::kEjection) {
    ++pkt.link_hops;
    DV_CHECK(pkt.link_hops <= num_vcs_, "packet exceeded the VC/hop bound");
  }

  const double ser = static_cast<double>(pkt.size) / hop.bandwidth;
  op.busy = true;
  ctx.schedule_in(
      ser, router, kEvPortFree, router, p,
      pri_key(kEvPortFree,
              static_cast<std::uint64_t>(router) * ports_per_router_ + p));
  if (hop.cls == LinkClass::kEjection) {
    // The destination terminal hangs off this router: same LP.
    ctx.schedule_in(ser + hop.latency, router, kEvPktAtTerminal, pid,
                    hop.dst_terminal, pri_key(kEvPktAtTerminal, pkt.uid));
  } else {
    // Cross-router (possibly cross-partition): the link latency keeps the
    // delay at or above the conservative lookahead.
    ctx.schedule_in(ser + hop.latency + params_.router_delay, hop.dst_router,
                    kEvPktAtRouter, pid, hop.dst_router,
                    pri_key(kEvPktAtRouter, pkt.uid));
  }
}

void Network::return_credit(Ctx& ctx, std::uint64_t enc_link) {
  const LinkClass cls = link_class(enc_link);
  if (cls == LinkClass::kNone) return;
  // Credits go to the LP owning the link's upstream (source) port; for
  // local/global links that can be another partition, and credit_latency
  // >= lookahead keeps the conservative contract.
  pdes::LpId lp = 0;
  switch (cls) {
    case LinkClass::kInjection:
    case LinkClass::kEjection:
      lp = topo_.terminal_router(link_id(enc_link));
      break;
    case LinkClass::kLocal:
      lp = topo_.local_link_ends(link_id(enc_link)).first;
      break;
    case LinkClass::kGlobal:
      lp = topo_.global_link_src(link_id(enc_link)).router;
      break;
    case LinkClass::kNone:
      break;
  }
  ctx.schedule_in(params_.credit_latency, lp, kEvCredit, enc_link, 0,
                  pri_key(kEvCredit, enc_link));
}

void Network::handle_packet_at_router(Ctx& ctx, std::uint32_t pid,
                                      std::uint32_t router, bool is_retry) {
  Packet& pkt = packet(pid);
  if (!is_retry) ++pkt.router_hops;
  Shard& sh = *shards_[ctx.shard];
  if (has_faults_ && fault_.router_down(router, ctx.now)) {
    // The packet arrived at (or is retrying on) a dead router: it cannot
    // be routed until the router revives.
    retry_or_drop(ctx, pid, router);
    return;
  }
  const routing::Decision d = planner_.route(pkt.route, router, *this,
                                             router_rng_[router],
                                             sh.route_stats, ctx.now);
  if (has_faults_ && port_blocked(router, d.port, ctx.now)) {
    // Routing found no live alternative (e.g. a dead local hop, or every
    // candidate global exit down): back off and re-route later.
    retry_or_drop(ctx, pid, router, d.port);
    return;
  }
  port(router, d.port).queue.push_back(pid);
  update_backlog(ctx, router, d.port);
  try_transmit(ctx, router, d.port);
}

void Network::retry_or_drop(Ctx& ctx, std::uint32_t pid, std::uint32_t router,
                            std::uint32_t blocked_port) {
  Packet& pkt = packet(pid);
  Shard& sh = *shards_[ctx.shard];
  LinkArray* la = nullptr;
  std::uint32_t link = 0;
  if (blocked_port != std::numeric_limits<std::uint32_t>::max()) {
    const Hop& hop = hop_for_port(router, blocked_port);
    if (hop.cls == LinkClass::kLocal || hop.cls == LinkClass::kGlobal) {
      la = &link_array_for(hop.cls);
      link = hop.id;
    }
  }
  if (pkt.retries < params_.fault_retry_budget) {
    ++pkt.retries;
    ++sh.fault_retries;
    ++router_retries_[router];
    if (la) ++la->retries[link];
    // Exponential backoff; the retry re-enters the routing step, so a
    // packet stuck at a dead port escapes as soon as an alternative (or
    // the port itself) comes back up.
    const std::uint32_t exp = std::min(pkt.retries - 1, 20u);
    const double backoff =
        params_.fault_retry_base * static_cast<double>(1ULL << exp);
    ctx.schedule_in(backoff, router, kEvPktRetry, pid, router,
                    pri_key(kEvPktRetry, pkt.uid));
    return;
  }
  // Retry budget exhausted: drop the packet where it sits. Its upstream
  // buffer slot frees, and the source terminal's partition is notified so
  // per-terminal drop counts stay owner-written (the notify delay equals
  // credit_latency, which respects the conservative lookahead).
  ++sh.pkts_dropped;
  sh.bytes_dropped += pkt.size;
  ++router_drops_[router];
  if (la) ++la->drops[link];
  --sh.in_flight;
  return_credit(ctx, pkt.in_link);
  ctx.schedule_in(params_.credit_latency, lp_of_terminal(pkt.src),
                  kEvPktDropNotify, pkt.src, 0,
                  pri_key(kEvPktDropNotify, pkt.uid));
  free_packet(ctx.shard, pid);
}

void Network::handle_fault_wake(Ctx& ctx, std::uint32_t router) {
  // Some adjacent entity changed liveness at exactly ctx.now. Dead ports:
  // bounce their queues into the retry path (the packets re-route and can
  // escape via a detour). Live ports: restart transmission — they may have
  // been silenced while down.
  for (std::uint32_t p = 0; p < ports_per_router_; ++p) {
    OutPort& op = port(router, p);
    if (port_blocked(router, p, ctx.now)) {
      while (!op.queue.empty()) {
        const std::uint32_t pid = op.queue.front();
        op.queue.pop_front();
        retry_or_drop(ctx, pid, router, p);
      }
      update_backlog(ctx, router, p);
    } else {
      try_transmit(ctx, router, p);
    }
  }
  // A revived router also resumes injection for its terminals.
  for (std::uint32_t s = 0; s < topo_.terminals_per_router(); ++s) {
    try_inject(ctx, topo_.terminal_id(router, s));
  }
}

void Network::handle_packet_at_terminal(Ctx& ctx, std::uint32_t pid,
                                        std::uint32_t term) {
  Packet& pkt = packet(pid);
  DV_CHECK(pkt.dst == term, "packet delivered to the wrong terminal");
  ++term_finished_[term];
  term_sum_latency_[term] += ctx.now - pkt.inject_time;
  term_sum_hops_[term] += pkt.router_hops;
  if (pkt.route.fault_detour) ++term_rerouted_[term];
  Shard& sh = *shards_[ctx.shard];
  ++sh.packets_delivered;
  sh.bytes_delivered += pkt.size;
  --sh.in_flight;

  // The ejection buffer slot frees once the NIC has drained the packet.
  DV_CHECK(link_class(pkt.in_link) == LinkClass::kEjection,
           "terminal received a packet not via its ejection link");
  const double drain =
      static_cast<double>(pkt.size) / params_.terminal_bandwidth;
  ctx.schedule_in(drain, lp_of_terminal(term), kEvCredit, pkt.in_link, 0,
                  pri_key(kEvCredit, pkt.in_link));
  free_packet(ctx.shard, pid);
}

// ----------------------------------------------------------------- sampling

void Network::take_sample(SimTime now) {
  // Frames are written straight into the series' frame-major storage
  // (push_frame_raw) — no temporary frame vectors on the per-tick path.
  // The delta arithmetic (float of a cumulative-double difference, in
  // entity order) matches the frames the row-at-a-time version produced
  // bit for bit.
  obs::ScopedPhase phase("sample");
  auto capture = [now](const LinkArray& la, std::vector<double>& prev_traffic,
                       std::vector<double>& prev_sat,
                       metrics::SampledSeries& traffic_ts,
                       metrics::SampledSeries& sat_ts) {
    const std::size_t n = la.traffic.size();
    float* dt = traffic_ts.push_frame_raw();
    float* ds = sat_ts.push_frame_raw();
    for (std::size_t i = 0; i < n; ++i) {
      const double cur_t = la.traffic[i];
      const double cur_s = la.sat_at(static_cast<std::uint32_t>(i), now);
      dt[i] = static_cast<float>(cur_t - prev_traffic[i]);
      ds[i] = static_cast<float>(cur_s - prev_sat[i]);
      prev_traffic[i] = cur_t;
      prev_sat[i] = cur_s;
    }
  };
  capture(local_links_, prev_local_traffic_, prev_local_sat_,
          local_traffic_ts_, local_sat_ts_);
  capture(global_links_, prev_global_traffic_, prev_global_sat_,
          global_traffic_ts_, global_sat_ts_);
  // Terminal series: injected bytes and injection+ejection saturation.
  {
    const std::size_t n = topo_.num_terminals();
    float* dt = term_traffic_ts_.push_frame_raw();
    float* ds = term_sat_ts_.push_frame_raw();
    for (std::size_t i = 0; i < n; ++i) {
      const auto li = static_cast<std::uint32_t>(i);
      const double cur_t = injection_.traffic[i];
      const double cur_s =
          injection_.sat_at(li, now) + ejection_.sat_at(li, now);
      dt[i] = static_cast<float>(cur_t - prev_term_traffic_[i]);
      ds[i] = static_cast<float>(cur_s - prev_term_sat_[i]);
      prev_term_traffic_[i] = cur_t;
      prev_term_sat_[i] = cur_s;
    }
  }
}

// ----------------------------------------------------------------- dispatch

void Network::dispatch(Ctx& ctx, const pdes::Event& ev) {
  switch (ev.kind) {
    case kEvMsgStart: {
      const Message& m = messages_[ev.data0];
      terminals_[m.src_terminal].pending.push_back(
          MsgProgress{m.dst_terminal, m.bytes, m.job, ctx.now});
      try_inject(ctx, m.src_terminal);
      break;
    }
    case kEvInjectorFree: {
      const auto term = static_cast<std::uint32_t>(ev.data0);
      terminals_[term].injector_busy = false;
      try_inject(ctx, term);
      break;
    }
    case kEvPktAtRouter:
      handle_packet_at_router(ctx, static_cast<std::uint32_t>(ev.data0),
                              static_cast<std::uint32_t>(ev.data1));
      break;
    case kEvPktAtTerminal:
      handle_packet_at_terminal(ctx, static_cast<std::uint32_t>(ev.data0),
                                static_cast<std::uint32_t>(ev.data1));
      break;
    case kEvPortFree: {
      const auto router = static_cast<std::uint32_t>(ev.data0);
      const auto p = static_cast<std::uint32_t>(ev.data1);
      port(router, p).busy = false;
      try_transmit(ctx, router, p);
      break;
    }
    case kEvCredit: {
      const std::uint64_t enc = ev.data0;
      const std::uint32_t id = link_id(enc);
      const std::uint32_t vc = link_vc(enc);
      switch (link_class(enc)) {
        case LinkClass::kInjection:
          injection_.give_credit(id, vc, ctx.now);
          try_inject(ctx, id);
          break;
        case LinkClass::kEjection: {
          ejection_.give_credit(id, vc, ctx.now);
          const std::uint32_t router = topo_.terminal_router(id);
          try_transmit(ctx, router, topo_.terminal_slot(id));
          break;
        }
        case LinkClass::kLocal: {
          local_links_.give_credit(id, vc, ctx.now);
          const auto [router, lport] = topo_.local_link_ends(id);
          try_transmit(ctx, router, topo_.terminals_per_router() + lport);
          break;
        }
        case LinkClass::kGlobal: {
          global_links_.give_credit(id, vc, ctx.now);
          const topo::GlobalEnd src = topo_.global_link_src(id);
          try_transmit(ctx, src.router, topo_.global_port(src.channel));
          break;
        }
        case LinkClass::kNone:
          DV_CHECK(false, "credit for the null link");
      }
      break;
    }
    case kEvPktRetry:
      handle_packet_at_router(ctx, static_cast<std::uint32_t>(ev.data0),
                              static_cast<std::uint32_t>(ev.data1),
                              /*is_retry=*/true);
      break;
    case kEvFaultWake:
      handle_fault_wake(ctx, static_cast<std::uint32_t>(ev.data0));
      break;
    case kEvPktDropNotify:
      ++term_dropped_[static_cast<std::uint32_t>(ev.data0)];
      break;
    default:
      DV_CHECK(false, "unknown event kind");
  }
}

void Network::on_event(pdes::Simulator& sim, const pdes::Event& ev) {
  Ctx ctx{&sim, nullptr, sim.now(), 0};
  dispatch(ctx, ev);
}

void Network::on_event(pdes::ParallelContext& pctx, const pdes::Event& ev) {
  t_active_partition = static_cast<std::int32_t>(pctx.partition());
  Ctx ctx{nullptr, &pctx, pctx.now(), pctx.partition()};
  dispatch(ctx, ev);
}

// ----------------------------------------------------------------- run

metrics::RunMetrics Network::run() {
  DV_REQUIRE(!ran_, "a Network can only run once");
  ran_ = true;

  partitions_used_ = resolve_partitions();
  const std::uint32_t nparts = partitions_used_;
  init_shards(nparts);

  if (nparts > 1) {
    // Topology-aware placement: groups are the atoms (the LP map is
    // group-contiguous and local links never leave a group), and the
    // partitioner minimizes the weight of channels crossing the cut
    // instead of striping contiguous group blocks.
    plan_ = std::make_unique<PartitionPlan>(partition_channels(
        topo_.groups(), nparts, dragonfly_channel_graph(topo_, params_)));
    for (std::uint32_t r = 0; r < topo_.num_routers(); ++r) {
      router_partition_[r] = plan_->atom_partition[topo_.router_group(r)];
    }
    par_ = std::make_unique<pdes::ParallelSimulator>(nparts, lookahead());
    // Per-pair lookahead: the tightest delay over channels actually
    // crossing each ordered cut, +infinity where nothing crosses. Under
    // faults the drop-notify path can message *any* pair (source
    // terminals live anywhere) at credit latency, so every pair is
    // clamped there. Must precede all scheduling — it retunes each
    // partition's bucket width, which requires empty queues.
    for (std::uint32_t s = 0; s < nparts; ++s) {
      for (std::uint32_t d = 0; d < nparts; ++d) {
        if (s == d) continue;
        double la = plan_->pair_lookahead(s, d);
        if (has_faults_) la = std::min(la, params_.credit_latency);
        par_->set_pair_lookahead(s, d, la);
      }
    }
    for (std::uint32_t r = 0; r < topo_.num_routers(); ++r) {
      par_->add_lp(static_cast<pdes::ParallelLp*>(this), router_partition_[r]);
    }
    if (params_.event_budget) par_->set_event_budget(params_.event_budget);
  } else {
    std::fill(router_partition_.begin(), router_partition_.end(), 0u);
  }

  // Fault wakes are plain pre-scheduled events, so both engines see the
  // same liveness transitions in the same (time, pri) order.
  if (has_faults_) {
    for (const auto& [router, t] : fault_.wakes()) {
      const std::uint64_t pri = pri_key(kEvFaultWake, router);
      if (par_) {
        par_->schedule(t, router, kEvFaultWake, router, 0, pri);
      } else {
        sim_.schedule(t, router, kEvFaultWake, router, 0, pri);
      }
    }
  }

  for (std::size_t i = 0; i < messages_.size(); ++i) {
    const pdes::LpId lp = lp_of_terminal(messages_[i].src_terminal);
    const std::uint64_t pri = pri_key(kEvMsgStart, i);
    if (par_) {
      par_->schedule(messages_[i].time, lp, kEvMsgStart, i, 0, pri);
    } else {
      sim_.schedule(messages_[i].time, lp, kEvMsgStart, i, 0, pri);
    }
  }

  // Sampling is orchestrated from here (not via self-rescheduling events):
  // both engines run window-by-window to each tick, and the sampler reads
  // link state between windows when no worker is active.
  SimTime end = 0.0;
  {
    obs::ScopedPhase phase("sim");
    if (sample_dt_ > 0.0) {
      SimTime tick = 0.0;
      if (par_) {
        while (par_->has_events()) {
          tick += sample_dt_;
          par_->run_until(tick);
          take_sample(tick);
        }
      } else {
        while (!sim_.queue_empty()) {
          tick += sample_dt_;
          sim_.run_until(tick);
          take_sample(tick);
        }
      }
      end = tick;
    } else if (par_) {
      par_->run_until(std::numeric_limits<SimTime>::max());
      end = par_->last_event_time();
    } else {
      sim_.run();
      end = sim_.now();
    }
  }

  std::int64_t in_flight = 0;
  std::uint64_t msgs_finished = 0, bytes_in = 0, bytes_out = 0;
  std::uint64_t bytes_dropped = 0;
  for (const auto& sh : shards_) {
    in_flight += sh->in_flight;
    msgs_finished += sh->msgs_finished;
    bytes_in += sh->bytes_injected;
    bytes_out += sh->bytes_delivered;
    bytes_dropped += sh->bytes_dropped;
  }
  DV_CHECK(in_flight == 0, "simulation drained with packets in flight");
  if (has_faults_) {
    // Messages queued behind a permanently dead router never finish
    // injecting; everything that did inject must be accounted for.
    DV_CHECK(msgs_finished <= messages_.size(),
             "message bookkeeping overflowed");
  } else {
    DV_CHECK(msgs_finished == messages_.size(),
             "simulation drained with messages outstanding");
  }
  DV_CHECK(bytes_in == bytes_out + bytes_dropped,
           "flow conservation violated: injected != delivered + dropped");

  metrics::RunMetrics out;
  {
    obs::ScopedPhase phase("collect");
    flush_and_collect(out, end);
  }
  publish_run_obs(out);
  return out;
}

std::uint64_t Network::packets_injected() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->packets_injected;
  return n;
}

std::uint64_t Network::packets_delivered() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->packets_delivered;
  return n;
}

void Network::publish_run_obs(const metrics::RunMetrics& out) {
#ifdef DV_OBS_ENABLED
  std::uint64_t bytes_in = 0, bytes_out = 0;
  std::uint64_t retries = 0, dropped = 0, bytes_dropped = 0;
  routing::RouteStats rs;
  for (const auto& sh : shards_) {
    bytes_in += sh->bytes_injected;
    bytes_out += sh->bytes_delivered;
    retries += sh->fault_retries;
    dropped += sh->pkts_dropped;
    bytes_dropped += sh->bytes_dropped;
    rs.minimal += sh->route_stats.minimal;
    rs.nonminimal += sh->route_stats.nonminimal;
    rs.par_diverts += sh->route_stats.par_diverts;
    rs.fault_detours += sh->route_stats.fault_detours;
    rs.steps += sh->route_stats.steps;
  }
  obs::counter("net.messages").add(messages_.size());
  obs::counter("net.packets_injected").add(packets_injected());
  obs::counter("net.packets_delivered").add(packets_delivered());
  obs::counter("net.bytes_injected").add(bytes_in);
  obs::counter("net.bytes_delivered").add(bytes_out);
  double hops = 0.0;
  for (const auto& t : out.terminals) hops += t.sum_hops;
  obs::counter("net.router_hops").add(static_cast<std::uint64_t>(hops));
  obs::counter("net.route.minimal").add(rs.minimal);
  obs::counter("net.route.nonminimal").add(rs.nonminimal);
  obs::counter("net.route.par_diverts").add(rs.par_diverts);
  obs::counter("net.route.steps").add(rs.steps);
  obs::gauge("net.partitions").set(static_cast<double>(partitions_used_));
  if (plan_) {
    obs::counter("par.partition.count").add(plan_->num_parts);
    obs::counter("par.partition.cut_channels").add(plan_->cut_channels);
    obs::counter("par.partition.total_channels").add(plan_->total_channels);
    obs::counter("par.partition.refine_moves").add(plan_->refine_moves);
    obs::gauge("par.partition.cut_weight").set(plan_->cut_weight);
    double la_min = std::numeric_limits<double>::infinity(), la_max = 0.0;
    for (std::uint32_t s = 0; s < plan_->num_parts; ++s) {
      for (std::uint32_t d = 0; d < plan_->num_parts; ++d) {
        if (s == d) continue;
        const double la = plan_->pair_lookahead(s, d);
        if (!std::isfinite(la)) continue;
        la_min = std::min(la_min, la);
        la_max = std::max(la_max, la);
      }
    }
    if (std::isfinite(la_min)) {
      obs::gauge("par.partition.lookahead_min").set(la_min);
      obs::gauge("par.partition.lookahead_max").set(la_max);
    }
  }
  if (has_faults_) {
    std::uint64_t rerouted = 0;
    for (const auto& t : out.terminals) rerouted += t.packets_rerouted;
    obs::counter("net.fault.retries").add(retries);
    obs::counter("net.fault.pkts_dropped").add(dropped);
    obs::counter("net.fault.bytes_dropped").add(bytes_dropped);
    obs::counter("net.fault.detours").add(rs.fault_detours);
    obs::counter("net.fault.rerouted").add(rerouted);
    obs::gauge("net.fault.entities").set(static_cast<double>(fault_.entities()));
  }
  if (sample_dt_ > 0.0) {
    obs::counter("net.sample_frames").add(out.local_traffic_ts.frames());
  }
#else
  (void)out;
#endif
}

void Network::flush_and_collect(metrics::RunMetrics& out, SimTime end) {
  out.groups = topo_.groups();
  out.routers_per_group = topo_.routers_per_group();
  out.terminals_per_router = topo_.terminals_per_router();
  out.global_per_router = topo_.global_per_router();
  out.workload = workload_label_;
  out.routing = routing::to_string(planner_.algo());
  out.placement = placement_label_;
  out.job_names = job_names_;
  out.seed = seed_;
  out.end_time = end;

  out.local_links.resize(topo_.num_local_links());
  for (std::uint32_t lid = 0; lid < topo_.num_local_links(); ++lid) {
    const auto [router, lport] = topo_.local_link_ends(lid);
    const Hop& hop =
        hop_for_port(router, topo_.terminals_per_router() + lport);
    metrics::LinkMetrics& l = out.local_links[lid];
    l.src_router = router;
    l.src_port = topo_.terminals_per_router() + lport;
    l.dst_router = hop.dst_router;
    l.dst_port = hop.dst_port;
    l.traffic = local_links_.traffic[lid];
    l.sat_time = local_links_.sat_at(lid, end);
    l.retries = local_links_.retries[lid];
    l.pkts_dropped = local_links_.drops[lid];
    if (has_faults_) {
      l.downtime = fault_.effective_link_downtime(false, lid, router,
                                                  hop.dst_router, end);
    }
  }
  out.global_links.resize(topo_.num_global_links());
  for (std::uint32_t gid = 0; gid < topo_.num_global_links(); ++gid) {
    const topo::GlobalEnd src = topo_.global_link_src(gid);
    const Hop& hop = hop_for_port(src.router, topo_.global_port(src.channel));
    metrics::LinkMetrics& l = out.global_links[gid];
    l.src_router = src.router;
    l.src_port = topo_.global_port(src.channel);
    l.dst_router = hop.dst_router;
    l.dst_port = hop.dst_port;
    l.traffic = global_links_.traffic[gid];
    l.sat_time = global_links_.sat_at(gid, end);
    l.retries = global_links_.retries[gid];
    l.pkts_dropped = global_links_.drops[gid];
    if (has_faults_) {
      l.downtime = fault_.effective_link_downtime(true, gid, src.router,
                                                  hop.dst_router, end);
    }
  }
  // Terminal rows assemble here from the columnar accumulators — the only
  // place the 80-byte TerminalMetrics records are materialized.
  out.terminals.resize(topo_.num_terminals());
  for (std::uint32_t t = 0; t < topo_.num_terminals(); ++t) {
    metrics::TerminalMetrics& tm = out.terminals[t];
    tm.router = topo_.terminal_router(t);
    tm.port = topo_.terminal_slot(t);
    tm.packets_finished = term_finished_[t];
    tm.sum_latency = term_sum_latency_[t];
    tm.sum_hops = term_sum_hops_[t];
    tm.packets_rerouted = term_rerouted_[t];
    tm.packets_dropped = term_dropped_[t];
    tm.data_size = injection_.traffic[t];
    tm.sat_time = injection_.sat_at(t, end) + ejection_.sat_at(t, end);
    tm.job = term_job_[t];
    if (has_faults_) {
      // A terminal is down exactly when its router is.
      tm.downtime = fault_.router_downtime(topo_.terminal_router(t), end);
    }
  }
  if (has_faults_) {
    out.router_downtime.resize(topo_.num_routers());
    for (std::uint32_t r = 0; r < topo_.num_routers(); ++r) {
      out.router_downtime[r] = fault_.router_downtime(r, end);
    }
    out.router_retries = router_retries_;
    out.router_drops = router_drops_;
  }

  if (sample_dt_ > 0.0) {
    // The orchestrated run already sampled through `end`; just hand the
    // series over.
    out.sample_dt = sample_dt_;
    out.local_traffic_ts = std::move(local_traffic_ts_);
    out.local_sat_ts = std::move(local_sat_ts_);
    out.global_traffic_ts = std::move(global_traffic_ts_);
    out.global_sat_ts = std::move(global_sat_ts_);
    out.term_traffic_ts = std::move(term_traffic_ts_);
    out.term_sat_ts = std::move(term_sat_ts_);
  }
}

}  // namespace dv::netsim
