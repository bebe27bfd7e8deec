// Unit tests of the benchmark harness's own logic: the tail-percentile
// rule, span self time and coverage, the seeded view generator, and the
// metric-name rule.
#include <gtest/gtest.h>

#include <thread>

#include "harness.hpp"

namespace perfbench {
namespace {

TEST(Stats, QuantileOfNoSamplesIsZero) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(median({5, 1, 9}), 5.0);
}

TEST(Stats, TailQuantileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(tail_quantile(0), 0.0);
  EXPECT_EQ(tail_quantile(19), 0.0);  // only 9 beyond the median
  EXPECT_EQ(tail_quantile(20), 0.5);
  EXPECT_EQ(tail_quantile(99), 0.5);  // 9.9 beyond p90
  EXPECT_EQ(tail_quantile(100), 0.9);
  EXPECT_EQ(tail_quantile(999), 0.9);
  EXPECT_EQ(tail_quantile(1000), 0.99);
  EXPECT_EQ(tail_quantile(10000), 0.999);
  EXPECT_EQ(tail_quantile(1000000), 0.999);
}

Span span(const char* name, double a, double b, std::int64_t parent) {
  return Span{name, a, b, parent, 1};
}

TEST(Spans, SelfTimeSubtractsTheUnionOfDirectChildren) {
  // root [0,10): children [1,3) and [2,5) overlap, [7,8) apart, and
  // [9,12) sticks out of the root and is clipped to [9,10).
  const std::vector<Span> spans = {
      span("root", 0, 10, -1), span("a", 1, 3, 0), span("b", 2, 5, 0),
      span("c", 7, 8, 0),      span("d", 9, 12, 0),
      span("a.x", 1.5, 2.5, 1)};  // grandchild: only a's self time shrinks
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - (4 + 1 + 1));
  EXPECT_DOUBLE_EQ(self[1], 2 - 1);
  EXPECT_DOUBLE_EQ(self[2], 3);
  EXPECT_DOUBLE_EQ(self[5], 1);
  EXPECT_DOUBLE_EQ(child_coverage(spans, 0), 0.6);
  EXPECT_DOUBLE_EQ(child_coverage(spans, 3), 0.0);  // a leaf covers nothing
  EXPECT_DOUBLE_EQ(span_seconds(spans, "a", 1), 2.0);
  EXPECT_DOUBLE_EQ(span_seconds(spans, "a", 2), 0.0);
}

TEST(Spans, LayerMillisecondsAreTheMedianOverOpsOfPerOpSums) {
  std::vector<Span> spans;
  // op 1: two "io" spans (1 s + 2 s); op 2: one of 1 s; op 3: one of 5 s.
  spans.push_back(Span{"io", 0, 1, -1, 1});
  spans.push_back(Span{"io", 1, 3, -1, 1});
  spans.push_back(Span{"io", 0, 1, -1, 2});
  spans.push_back(Span{"io", 0, 5, -1, 3});
  spans.push_back(Span{"cpu", 0, 9, -1, 1});
  EXPECT_DOUBLE_EQ(layer_ms(spans, "io", {1, 2, 3}), 3000.0);
  EXPECT_DOUBLE_EQ(layer_ms(spans, "cpu", {1, 2}), 4500.0);
  EXPECT_DOUBLE_EQ(layer_ms(spans, "io", {}), 0.0);
}

TEST(Spans, MinCoverageIsTheWorstRoot) {
  const std::vector<Span> spans = {
      span("root1", 0, 10, -1), span("a", 0, 10, 0),   // fully covered
      span("root2", 0, 10, -1), span("b", 0, 8, 2)};  // 80% covered
  EXPECT_DOUBLE_EQ(min_coverage(spans, {0}), 1.0);
  EXPECT_DOUBLE_EQ(min_coverage(spans, {0, 2}), 0.8);
}

TEST(Spans, TracerNestsByThreadAndKeepsOps) {
  Tracer tr;
  {
    ScopedSpan root(&tr, "op", 7);
    { ScopedSpan child(&tr, "layer", 7); }
    tr.record("synthetic", 0, 0, root.id(), 7);
  }
  { ScopedSpan untraced(nullptr, "ignored", 8); }
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[1].op, 7u);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_LE(spans[1].end, spans[0].end);
}

TEST(Spans, TracerNestsEachThreadsSpansSeparately) {
  Tracer tr;
  std::vector<std::thread> threads;
  for (std::uint64_t t = 1; t <= 2; ++t) {
    threads.emplace_back([&tr, t] {
      for (int i = 0; i < 100; ++i) {
        ScopedSpan root(&tr, "op", t);
        ScopedSpan child(&tr, "layer", t);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 400u);
  for (const Span& s : spans) {
    if (s.name == "op") {
      EXPECT_EQ(s.parent, -1);
    } else {
      ASSERT_GE(s.parent, 0);
      EXPECT_EQ(spans[static_cast<std::size_t>(s.parent)].name, "op");
      EXPECT_EQ(spans[static_cast<std::size_t>(s.parent)].op, s.op);
    }
  }
}

TEST(Spans, TracerCountsSpansThatDoNotFit) {
  Tracer tr(3);
  for (int i = 0; i < 3; ++i) tr.record("s", 0, 1, -1, 1);
  EXPECT_EQ(tr.dropped(), 0u);
  const auto id = tr.open("late", 2);
  EXPECT_EQ(id, -1);
  tr.close(id);
  EXPECT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.spans().size(), 3u);
  EXPECT_EQ(tr.dropped(), 1u);
  EXPECT_EQ(Tracer(0).size(), 0u);  // an untraced run's tracer
}

TEST(ViewGen, SameSeedSameSequence) {
  ViewGen a(42, 95), b(42, 95), c(43, 95);
  bool differs = false;
  for (int i = 0; i < 500; ++i) {
    const ViewOp x = a.next(), y = b.next(), z = c.next();
    EXPECT_EQ(x.f0, y.f0);
    EXPECT_EQ(x.f1, y.f1);
    EXPECT_EQ(x.brush, y.brush);
    EXPECT_EQ(x.revisit, y.revisit);
    differs = differs || x.f0 != z.f0 || x.f1 != z.f1;
  }
  EXPECT_TRUE(differs);
}

TEST(ViewGen, WindowsRevisitAboutHalfTheTimeAndBrushEveryFifthOp) {
  ViewGen g(7, 95);
  int revisits = 0;
  const int n = 2000;
  for (int i = 1; i <= n; ++i) {
    const ViewOp v = g.next();
    EXPECT_LT(v.f0, v.f1);
    EXPECT_LE(v.f1, 95u);
    revisits += v.revisit;
    if (i % 5 == 0) {
      EXPECT_GE(v.brush, 0);
      EXPECT_LE(v.brush, kBrushLevels);
    } else {
      EXPECT_EQ(v.brush, -1);
    }
  }
  EXPECT_GT(revisits, n * 45 / 100);
  EXPECT_LT(revisits, n * 55 / 100);
}

TEST(Metrics, NamesAreValid) {
  EXPECT_TRUE(valid_metric_name("view_p50_ms"));
  EXPECT_TRUE(valid_metric_name("serve.cache-hits_2"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("view p50"));
  EXPECT_FALSE(valid_metric_name("ops/s"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

}  // namespace
}  // namespace perfbench
