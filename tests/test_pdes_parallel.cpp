// Conservative parallel engine tests: protocol contracts and sequential
// equivalence on PHOLD.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "pdes/parallel.hpp"
#include "pdes/phold.hpp"

namespace dv::pdes {
namespace {

class CountingLp : public ParallelLp {
 public:
  std::uint64_t count = 0;
  void on_event(ParallelContext&, const Event&) override { ++count; }
};

/// Forwards each event to a fixed peer with a fixed delay.
class ForwardingLp : public ParallelLp {
 public:
  LpId peer = 0;
  double delay = 0.0;
  int remaining = 0;
  std::vector<SimTime> times;

  void on_event(ParallelContext& ctx, const Event& ev) override {
    times.push_back(ctx.now());
    if (remaining-- > 0) ctx.schedule(ctx.now() + delay, peer, ev.kind);
  }
};

TEST(ParallelPdes, SinglePartitionBehavesSequentially) {
  ParallelSimulator sim(1, 1.0);
  CountingLp lp;
  const LpId id = sim.add_lp(&lp);
  for (int i = 0; i < 20; ++i) sim.schedule(i * 0.5, id, 0);
  sim.run_until(100.0);
  EXPECT_EQ(lp.count, 20u);
  EXPECT_EQ(sim.events_processed(), 20u);
}

TEST(ParallelPdes, CrossPartitionPingPong) {
  ParallelSimulator sim(2, 1.0);
  ForwardingLp a, b;
  const LpId ia = sim.add_lp(&a, 0);
  const LpId ib = sim.add_lp(&b, 1);
  a.peer = ib;
  b.peer = ia;
  a.delay = b.delay = 1.5;  // >= lookahead
  a.remaining = b.remaining = 10;
  sim.schedule(0.0, ia, 0);
  sim.run_until(100.0);
  // 1 initial event + 10 forwards each way.
  EXPECT_EQ(a.times.size() + b.times.size(), 21u);
  // Alternating, strictly increasing timestamps.
  for (std::size_t i = 1; i < a.times.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.times[i] - a.times[i - 1], 3.0);
  }
}

TEST(ParallelPdes, LookaheadContractEnforced) {
  ParallelSimulator sim(2, 2.0);
  ForwardingLp a, b;
  const LpId ia = sim.add_lp(&a, 0);
  const LpId ib = sim.add_lp(&b, 1);
  a.peer = ib;
  a.delay = 0.5;  // < lookahead: violates the conservative contract
  a.remaining = 1;
  sim.schedule(0.0, ia, 0);
  EXPECT_THROW(sim.run_until(10.0), Error);
}

TEST(ParallelPdes, SamePartitionAllowsShortDelays) {
  ParallelSimulator sim(2, 2.0);
  ForwardingLp a, b;
  const LpId ia = sim.add_lp(&a, 0);
  const LpId ib = sim.add_lp(&b, 0);  // same partition
  a.peer = ib;
  b.peer = ia;
  a.delay = b.delay = 0.1;  // fine within a partition
  a.remaining = b.remaining = 5;
  sim.schedule(0.0, ia, 0);
  EXPECT_NO_THROW(sim.run_until(10.0));
  EXPECT_EQ(sim.events_processed(), 11u);
}

TEST(ParallelPdes, RunUntilHonoursHorizonInclusively) {
  ParallelSimulator sim(2, 1.0);
  CountingLp lp, other;
  const LpId id = sim.add_lp(&lp, 0);
  sim.add_lp(&other, 1);  // every partition must own an LP
  sim.schedule(5.0, id, 0);
  sim.schedule(10.0, id, 0);   // exactly at the horizon: runs
  sim.schedule(10.001, id, 0); // beyond: does not
  sim.run_until(10.0);
  EXPECT_EQ(lp.count, 2u);
}

TEST(ParallelPdes, InvalidConfigs) {
  EXPECT_THROW(ParallelSimulator(0, 1.0), Error);
  EXPECT_THROW(ParallelSimulator(2, 0.0), Error);
  ParallelSimulator sim(2, 1.0);
  CountingLp lp;
  EXPECT_THROW(sim.add_lp(nullptr), Error);
  EXPECT_THROW(sim.add_lp(&lp, 5), Error);
  const LpId id = sim.add_lp(&lp);
  EXPECT_THROW(sim.schedule(-1.0, id, 0), Error);
  EXPECT_THROW(sim.schedule(0.0, 99, 0), Error);
}

TEST(ParallelPdes, MorePartitionsThanLpsRejected) {
  // Empty partitions would idle-spin at every window edge; run_until
  // rejects the configuration up front with an actionable message.
  ParallelSimulator sim(4, 1.0);
  CountingLp lp;
  const LpId id = sim.add_lp(&lp);
  sim.schedule(1.0, id, 0);
  try {
    sim.run_until(10.0);
    FAIL() << "expected run_until to reject partitions > LP count";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("more partitions than LPs"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParallelPdes, PairwiseLookaheadMatrix) {
  ParallelSimulator sim(3, 1.0);
  EXPECT_DOUBLE_EQ(sim.pair_lookahead(0, 1), 1.0);  // defaults to the floor
  sim.set_pair_lookahead(0, 1, 5.0);
  sim.set_pair_lookahead(1, 0, 2.0);
  EXPECT_DOUBLE_EQ(sim.pair_lookahead(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(sim.pair_lookahead(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(sim.pair_lookahead(2, 0), 1.0);  // untouched pair
  // Entries below the global floor are rejected; the diagonal is invalid.
  EXPECT_THROW(sim.set_pair_lookahead(0, 1, 0.5), Error);
  EXPECT_THROW(sim.set_pair_lookahead(1, 1, 2.0), Error);
}

TEST(ParallelPdes, PairwiseLookaheadContractEnforced) {
  ParallelSimulator sim(2, 1.0);
  sim.set_pair_lookahead(0, 1, 4.0);
  ForwardingLp a, b;
  const LpId ia = sim.add_lp(&a, 0);
  const LpId ib = sim.add_lp(&b, 1);
  a.peer = ib;
  a.delay = 2.0;  // clears the 1.0 floor but not the 4.0 pair lookahead
  a.remaining = 1;
  sim.schedule(0.0, ia, 0);
  EXPECT_THROW(sim.run_until(10.0), Error);
}

TEST(ParallelPdes, UnreachablePairRejectsSends) {
  ParallelSimulator sim(2, 1.0);
  sim.set_pair_lookahead(
      0, 1, std::numeric_limits<double>::infinity());  // no channel 0 -> 1
  ForwardingLp a, b;
  const LpId ia = sim.add_lp(&a, 0);
  const LpId ib = sim.add_lp(&b, 1);
  a.peer = ib;
  a.delay = 1e9;  // no finite delay can satisfy an infinite lookahead
  a.remaining = 1;
  sim.schedule(0.0, ia, 0);
  EXPECT_THROW(sim.run_until(10.0), Error);
}

TEST(ParallelPdes, WiderPairLookaheadKeepsPingPongExact) {
  // Raising the pairwise lookaheads above the floor must not change what
  // runs — only how far workers may advance between negotiations.
  ParallelSimulator sim(2, 1.0);
  sim.set_pair_lookahead(0, 1, 1.5);
  sim.set_pair_lookahead(1, 0, 1.5);
  ForwardingLp a, b;
  const LpId ia = sim.add_lp(&a, 0);
  const LpId ib = sim.add_lp(&b, 1);
  a.peer = ib;
  b.peer = ia;
  a.delay = b.delay = 1.5;
  a.remaining = b.remaining = 10;
  sim.schedule(0.0, ia, 0);
  sim.run_until(100.0);
  EXPECT_EQ(a.times.size() + b.times.size(), 21u);
  for (std::size_t i = 1; i < a.times.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.times[i] - a.times[i - 1], 3.0);
  }
}

TEST(ParallelPdes, WorkerStatsCountProcessedEvents) {
  ParallelSimulator sim(2, 1.0);
  CountingLp a, b;
  const LpId ia = sim.add_lp(&a, 0);
  const LpId ib = sim.add_lp(&b, 1);
  for (int i = 0; i < 6; ++i) sim.schedule(1.0 + i, ia, 0);
  for (int i = 0; i < 4; ++i) sim.schedule(1.0 + i, ib, 0);
  sim.run_until(100.0);
  EXPECT_EQ(sim.worker_stats(0).events, 6u);
  EXPECT_EQ(sim.worker_stats(1).events, 4u);
  EXPECT_GE(sim.worker_stats(0).rounds, 1u);
  EXPECT_THROW(sim.worker_stats(2), Error);
}

class PholdEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PholdEquivalence, ParallelMatchesSequential) {
  PholdConfig cfg;
  cfg.lps = 24;
  cfg.population = 3;
  cfg.lookahead = 1.0;
  cfg.mean_delay = 4.0;
  cfg.horizon = 500.0;
  cfg.seed = 42;
  const auto seq = run_phold_sequential(cfg);
  const auto par = run_phold_parallel(cfg, GetParam());
  EXPECT_GT(seq.events, 1000u);
  EXPECT_EQ(par.events, seq.events);
  EXPECT_EQ(par.per_lp, seq.per_lp);
}

INSTANTIATE_TEST_SUITE_P(Partitions, PholdEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(Phold, DeterministicAcrossRuns) {
  PholdConfig cfg;
  cfg.lps = 12;
  cfg.horizon = 200.0;
  const auto a = run_phold_parallel(cfg, 3);
  const auto b = run_phold_parallel(cfg, 3);
  EXPECT_EQ(a.per_lp, b.per_lp);
}

}  // namespace
}  // namespace dv::pdes
