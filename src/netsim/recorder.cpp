#include "netsim/recorder.hpp"

namespace dv::netsim {

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

// ----------------------------------------------------------------- PortTable

PortTable::PortTable(const topo::Dragonfly& topo, const Params& params)
    : ports_per_router_(topo.ports_per_router()) {
  const std::uint32_t nterm = topo.terminals_per_router();
  const std::uint32_t nlocal = topo.routers_per_group() - 1;
  hops_.reserve(static_cast<std::size_t>(topo.num_routers()) *
                ports_per_router_);
  for (std::uint32_t r = 0; r < topo.num_routers(); ++r) {
    const std::uint32_t rank = topo.router_rank(r);
    for (std::uint32_t p = 0; p < ports_per_router_; ++p) {
      Hop& hop = hops_.emplace_back();
      if (p < nterm) {
        hop.cls = LinkClass::kEjection;
        hop.dst_terminal = topo.terminal_id(r, p);
        hop.id = hop.dst_terminal;
        hop.bandwidth = params.terminal_bandwidth;
        hop.latency = params.terminal_latency;
      } else if (p < nterm + nlocal) {
        const std::uint32_t lport = p - nterm;
        const std::uint32_t nrank = topo.local_neighbor(rank, lport);
        hop.cls = LinkClass::kLocal;
        hop.id = topo.local_link_id(r, lport);
        hop.dst_router = topo.router_id(topo.router_group(r), nrank);
        hop.dst_port = topo.local_port(nrank, rank);
        hop.bandwidth = params.local_bandwidth;
        hop.latency = params.local_latency;
      } else {
        const std::uint32_t channel = p - nterm - nlocal;
        const topo::GlobalEnd far = topo.global_neighbor(r, channel);
        hop.cls = LinkClass::kGlobal;
        hop.id = topo.global_link_id(r, channel);
        hop.dst_router = far.router;
        hop.dst_port = topo.global_port(far.channel);
        hop.bandwidth = params.global_bandwidth;
        hop.latency = params.global_latency;
      }
    }
  }
}

// ----------------------------------------------------------------- series

void SeriesPair::init(std::size_t entities, double dt) {
  traffic = metrics::SampledSeries(entities, dt);
  sat = metrics::SampledSeries(entities, dt);
  prev_traffic_.assign(entities, 0.0);
  prev_sat_.assign(entities, 0.0);
}

// ----------------------------------------------------------------- recorder

RunRecorder::RunRecorder(const topo::Dragonfly& topo, const Params& params,
                         routing::Algo algo, std::uint64_t seed)
    : topo_(topo), ports_(topo, params), routing_(routing::to_string(algo)),
      seed_(seed) {
  const std::uint32_t n = topo_.num_terminals();
  term_job_.assign(n, -1);
  finished_.assign(n, 0);
  sum_latency_.assign(n, 0.0);
  sum_hops_.assign(n, 0.0);
  rerouted_.assign(n, 0);
  dropped_.assign(n, 0);
}

void RunRecorder::check(const Message& m) const {
  DV_REQUIRE(m.src_terminal < topo_.num_terminals() &&
                 m.dst_terminal < topo_.num_terminals(),
             "message endpoint outside the topology");
  DV_REQUIRE(m.src_terminal != m.dst_terminal,
             "self-messages never enter the network");
  DV_REQUIRE(m.bytes > 0, "empty message");
  DV_REQUIRE(m.time >= 0.0, "negative message time");
}

void RunRecorder::set_labels(std::string workload, std::string placement,
                             std::vector<std::string> job_names) {
  workload_label_ = std::move(workload);
  placement_label_ = std::move(placement);
  job_names_ = std::move(job_names);
}

void RunRecorder::set_jobs(const placement::Placement& placement) {
  DV_REQUIRE(placement.job_of.size() == term_job_.size(),
             "placement size mismatch");
  term_job_ = placement.job_of;
}

void RunRecorder::enable_sampling(double dt) {
  DV_REQUIRE(dt > 0.0, "sampling interval must be positive");
  sample_dt_ = dt;
  local_ts_.init(topo_.num_local_links(), dt);
  global_ts_.init(topo_.num_global_links(), dt);
  term_ts_.init(topo_.num_terminals(), dt);
}

metrics::RunMetrics RunRecorder::collect(double end) {
  metrics::RunMetrics out;
  out.groups = topo_.groups();
  out.routers_per_group = topo_.routers_per_group();
  out.terminals_per_router = topo_.terminals_per_router();
  out.global_per_router = topo_.global_per_router();
  out.workload = workload_label_;
  out.routing = routing_;
  out.placement = placement_label_;
  out.job_names = job_names_;
  out.seed = seed_;
  out.end_time = end;

  auto link_row = [this](metrics::LinkMetrics& l, std::uint32_t router,
                         std::uint32_t port) {
    const Hop& hop = ports_.hop(router, port);
    l.src_router = router;
    l.src_port = port;
    l.dst_router = hop.dst_router;
    l.dst_port = hop.dst_port;
  };
  out.local_links.resize(topo_.num_local_links());
  for (std::uint32_t lid = 0; lid < topo_.num_local_links(); ++lid) {
    const auto [router, lport] = topo_.local_link_ends(lid);
    link_row(out.local_links[lid], router,
             topo_.terminals_per_router() + lport);
  }
  out.global_links.resize(topo_.num_global_links());
  for (std::uint32_t gid = 0; gid < topo_.num_global_links(); ++gid) {
    const topo::GlobalEnd src = topo_.global_link_src(gid);
    link_row(out.global_links[gid], src.router,
             topo_.global_port(src.channel));
  }
  // The only place the 80-byte TerminalMetrics rows are materialized; the
  // backends accumulate into the flat columns above.
  out.terminals.resize(topo_.num_terminals());
  for (std::uint32_t t = 0; t < topo_.num_terminals(); ++t) {
    metrics::TerminalMetrics& tm = out.terminals[t];
    tm.router = topo_.terminal_router(t);
    tm.port = topo_.terminal_slot(t);
    tm.packets_finished = finished_[t];
    tm.sum_latency = sum_latency_[t];
    tm.sum_hops = sum_hops_[t];
    tm.packets_rerouted = rerouted_[t];
    tm.packets_dropped = dropped_[t];
    tm.job = term_job_[t];
  }

  if (sample_dt_ > 0.0) {
    out.sample_dt = sample_dt_;
    out.local_traffic_ts = std::move(local_ts_.traffic);
    out.local_sat_ts = std::move(local_ts_.sat);
    out.global_traffic_ts = std::move(global_ts_.traffic);
    out.global_sat_ts = std::move(global_ts_.sat);
    out.term_traffic_ts = std::move(term_ts_.traffic);
    out.term_sat_ts = std::move(term_ts_.sat);
  }
  return out;
}

}  // namespace dv::netsim
