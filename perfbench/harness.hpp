// Harness primitives of the pipeline benchmark: order statistics and the
// tail-percentile rule, an in-memory span tracer with self-time and
// coverage queries, the seeded view generator that drives brushing, the
// host probe, and the harness's result line. Needs only dv_util, so
// tests/test_harness.cpp checks them in isolation.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds since an arbitrary process-wide epoch.
double now_s();

/// dv::percentile of the samples (linear interpolation between closest
/// ranks), or 0 when there are none.
double quantile(const std::vector<double>& v, double q);
double median(const std::vector<double>& v);

/// The tail-percentile rule: the highest of p50, p90, p99 and p99.9 that
/// has at least ten of `n` samples beyond it. Returns that quantile
/// (0.5, 0.9, ...), or 0 when even the median lacks ten samples beyond it.
double tail_quantile(std::size_t n);

/// Metric names are made of letters, digits, '_', '.' and '-'.
bool valid_metric_name(const std::string& name);

// ---------------------------------------------------------------------------
// Spans.

/// One timed interval at a layer boundary. `op` groups the spans of one
/// benchmark operation; `parent` indexes the enclosing span (-1 = root).
/// `name` views a string literal.
struct Span {
  std::string_view name;
  double start = 0.0;  ///< now_s() seconds
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;

  double seconds() const { return end - start; }
};

/// Collects spans in memory (thread-safe); they are written out once, when
/// the run ends. Each thread nests the spans it opens: a span's parent is
/// the innermost span still open on the same thread. Room for every span is
/// allocated and touched up front, and a span claims its slot with one
/// atomic increment, so recording a span never allocates or waits on a
/// lock inside a timed op.
class Tracer {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;

  /// An untraced run passes 0, so the tracer adds nothing to its memory.
  explicit Tracer(std::size_t capacity = kCapacity);
  /// -1 when the tracer is full (see dropped()); closing -1 is a no-op.
  std::int64_t open(std::string_view name, std::uint64_t op);
  void close(std::int64_t id);
  /// Adds an already-measured span (e.g. a sub-interval a layer reports).
  std::int64_t record(std::string_view name, double start, double end,
                      std::int64_t parent, std::uint64_t op);

  /// The spans recorded so far, and their count. Call these only while no
  /// other thread records.
  std::size_t size() const;
  std::vector<Span> spans() const;
  /// Spans that did not fit.
  std::size_t dropped() const;
  /// Every span with its self time (see self_times), as a JSON array.
  std::string to_json() const;

 private:
  std::int64_t claim();

  std::vector<Span> slots_;
  std::atomic<std::size_t> next_{0};
};

/// RAII span; a null tracer records nothing (an untraced operation).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), id_(tracer ? tracer->open(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

/// Seconds of each span's interval that its direct children do not cover
/// (children are clipped to the parent; overlapping children count once).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Fraction of span `id`'s duration covered by its direct children.
double child_coverage(const std::vector<Span>& spans, std::size_t id);

/// Summed seconds of the spans called `name` in operation `op`.
double span_seconds(const std::vector<Span>& spans, const std::string& name,
                    std::uint64_t op);

/// Median over the operations `ops` of the summed seconds of spans named
/// `name`, in milliseconds.
double layer_ms(const std::vector<Span>& spans, const std::string& name,
                const std::vector<std::uint64_t>& ops);

/// Minimum over `roots` of the share of each root span its children cover.
double min_coverage(const std::vector<Span>& spans,
                    const std::vector<std::int64_t>& roots);

// ---------------------------------------------------------------------------
// Brushing input.

/// One interactive request: a time window in sample frames [f0, f1), and
/// optionally an attribute brush to set first (0 = clear the brush,
/// 1..kBrushLevels = a threshold level, -1 = leave the brush alone).
struct ViewOp {
  std::uint32_t f0 = 0;
  std::uint32_t f1 = 0;
  bool revisit = false;  ///< repeats a window this generator drew before
  int brush = -1;
};

inline constexpr int kBrushLevels = 3;

/// Deterministic view sequence for one client: about half of the windows
/// revisit an earlier one, and every fifth op also sets a brush.
class ViewGen {
 public:
  ViewGen(std::uint64_t seed, std::uint32_t frames);
  ViewOp next();

 private:
  std::uint64_t rand();
  std::uint64_t state_;
  std::uint32_t frames_;
  std::uint64_t count_ = 0;
  std::vector<ViewOp> history_;
};

// ---------------------------------------------------------------------------
// Host and result.

/// Wall seconds of a fixed memory-bound kernel (a 48 MiB streaming triad),
/// the median of 5 repetitions.
/// Timed before and after each run so a slow host shows apart from a slow
/// program; recorded with the run's provenance, never as a metric.
double host_probe_seconds();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Bytes of a file, or of every regular file under a directory.
std::uint64_t disk_bytes(const std::string& path);

/// The harness's result line: {"correct", "attempted", "failed", "values"}
/// with `values` mapping metric names to numbers. run.py turns it into the
/// benchmark's result line, taking each metric's unit from BENCHMARK.json.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::map<std::string, double>& values);

/// Round-trip exact decimal form of a double.
std::string num(double v);

/// JSON string literal.
std::string quote(const std::string& s);

}  // namespace perfbench
