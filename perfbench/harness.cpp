#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "util/stats.hpp"

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double quantile(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : dv::percentile(v, q);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double tail_quantile(std::size_t n) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    // Samples strictly beyond the q-quantile: n * (1 - q), rounded down.
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
    if (beyond >= 10) best = q;
  }
  return best;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans.

namespace {
thread_local std::vector<std::int64_t> t_open;  // this thread's span stack
}  // namespace

Tracer::Tracer(std::size_t capacity) : slots_(capacity) {}

std::int64_t Tracer::claim() {
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  return i < slots_.size() ? static_cast<std::int64_t>(i) : -1;
}

std::int64_t Tracer::open(std::string_view name, std::uint64_t op) {
  const double start = now_s();
  const std::int64_t id = claim();
  if (id < 0) return id;
  slots_[static_cast<std::size_t>(id)] =
      Span{name, start, start, t_open.empty() ? -1 : t_open.back(), op};
  t_open.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  const double end = now_s();
  if (id < 0) return;
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  slots_[static_cast<std::size_t>(id)].end = end;
}

std::int64_t Tracer::record(std::string_view name, double start, double end,
                            std::int64_t parent, std::uint64_t op) {
  const std::int64_t id = claim();
  if (id >= 0) {
    slots_[static_cast<std::size_t>(id)] = Span{name, start, end, parent, op};
  }
  return id;
}

std::size_t Tracer::size() const {
  return std::min(next_.load(std::memory_order_relaxed), slots_.size());
}

std::vector<Span> Tracer::spans() const {
  return {slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(size())};
}

std::size_t Tracer::dropped() const {
  return next_.load(std::memory_order_relaxed) - size();
}

std::string Tracer::to_json() const {
  std::ostringstream os;
  os << "[\n";
  const auto all = spans();
  const auto self = self_times(all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    os << "  {\"id\": " << i << ", \"name\": " << quote(std::string(s.name))
       << ", \"start\": " << num(s.start) << ", \"end\": " << num(s.end)
       << ", \"self\": " << num(self[i]) << ", \"parent\": " << s.parent
       << ", \"op\": " << s.op << "}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return os.str();
}

namespace {

/// Length of the union of the children's intervals, clipped to the parent.
double covered(const std::vector<Span>& spans, const Span& parent,
               const std::vector<std::size_t>& children) {
  std::vector<std::pair<double, double>> iv;
  for (const std::size_t c : children) {
    const double a = std::max(spans[c].start, parent.start);
    const double b = std::min(spans[c].end, parent.end);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_a = 0.0, cur_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

std::vector<std::vector<std::size_t>> children_of(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      kids[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  return kids;
}

}  // namespace

std::vector<double> self_times(const std::vector<Span>& spans) {
  const auto kids = children_of(spans);
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = spans[i].seconds() - covered(spans, spans[i], kids[i]);
  }
  return out;
}

double child_coverage(const std::vector<Span>& spans, std::size_t id) {
  const double d = spans[id].seconds();
  if (d <= 0.0) return 1.0;
  return covered(spans, spans[id], children_of(spans)[id]) / d;
}

double span_seconds(const std::vector<Span>& spans, const std::string& name,
                    std::uint64_t op) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.op == op && s.name == name) total += s.seconds();
  }
  return total;
}

double layer_ms(const std::vector<Span>& spans, const std::string& name,
                const std::vector<std::uint64_t>& ops) {
  std::vector<double> per_op;
  for (const auto op : ops) per_op.push_back(span_seconds(spans, name, op));
  return median(per_op) * 1e3;
}

double min_coverage(const std::vector<Span>& spans,
                    const std::vector<std::int64_t>& roots) {
  double lo = 1.0;
  for (const auto r : roots) {
    lo = std::min(lo, child_coverage(spans, static_cast<std::size_t>(r)));
  }
  return lo;
}

// ---------------------------------------------------------------------------
// Brushing input.

ViewGen::ViewGen(std::uint64_t seed, std::uint32_t frames)
    : state_(seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull),
      frames_(frames) {}

std::uint64_t ViewGen::rand() {  // splitmix64
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

ViewOp ViewGen::next() {
  ViewOp op;
  if (!history_.empty() && rand() % 2 == 0) {
    op = history_[rand() % history_.size()];
    op.revisit = true;
  } else {
    // Two distinct frame boundaries in [0, frames] bound the window.
    const auto a = static_cast<std::uint32_t>(rand() % (frames_ + 1));
    auto b = static_cast<std::uint32_t>(rand() % frames_);
    if (b >= a) ++b;
    op.f0 = std::min(a, b);
    op.f1 = std::max(a, b);
    op.revisit = false;
    history_.push_back(op);
  }
  op.brush = (++count_ % 5 == 0)
                 ? static_cast<int>(rand() % (kBrushLevels + 1))
                 : -1;
  return op;
}

// ---------------------------------------------------------------------------
// Host and result.

double host_probe_seconds() {
  constexpr std::size_t kN = 2u << 20;  // 3 arrays x 16 MiB of doubles
  std::vector<double> a(kN, 1.0), b(kN, 2.0), c(kN, 0.0);
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    for (int pass = 0; pass < 20; ++pass) {
      const double s = 0.5 + pass;
      for (std::size_t i = 0; i < kN; ++i) c[i] = a[i] + s * b[i];
      std::swap(a, c);
    }
    reps.push_back(now_s() - t0);
  }
  volatile double sink = a[kN / 2];  // keeps the triad from being elided
  (void)sink;
  return median(reps);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t disk_bytes(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) return fs::file_size(path, ec);
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(path, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";  // not a number: fails loudly
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"values\": {";
  const char* sep = "";
  for (const auto& [name, value] : values) {
    os << sep << quote(name) << ": " << num(value);
    sep = ", ";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
