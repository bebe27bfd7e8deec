#include "metrics/run_metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>

#include "json/json.hpp"
#include "metrics/dvr.hpp"
#include "util/kernels.hpp"
#include "util/str.hpp"

namespace dv::metrics {

// ------------------------------------------------------------ SampledSeries

void SampledSeries::push_frame(const std::vector<float>& deltas) {
  DV_REQUIRE(deltas.size() == entities_, "frame size mismatch");
  data_.insert(data_.end(), deltas.begin(), deltas.end());
}

float* SampledSeries::push_frame_raw() {
  DV_REQUIRE(entities_ > 0, "push_frame_raw on an unconfigured series");
  data_.resize(data_.size() + entities_, 0.0f);
  return data_.data() + (data_.size() - entities_);
}

SampledSeries SampledSeries::adopt(std::size_t entities, double dt,
                                   std::vector<float> data) {
  DV_REQUIRE(entities ? data.size() % entities == 0 : data.empty(),
             "adopted series data is not a whole number of frames");
  SampledSeries s(entities, dt);
  s.data_ = std::move(data);
  return s;
}

float SampledSeries::at(std::size_t frame, std::size_t entity) const {
  DV_REQUIRE(frame < frames() && entity < entities_, "series index out of range");
  return data_[frame * entities_ + entity];
}

double SampledSeries::frame_total(std::size_t frame) const {
  DV_REQUIRE(frame < frames(), "frame out of range");
  return kernels::sum_span(data_.data() + frame * entities_, entities_);
}

double SampledSeries::range_sum(std::size_t entity, std::size_t f0,
                                std::size_t f1) const {
  DV_REQUIRE(entity < entities_, "entity out of range");
  DV_REQUIRE(f0 <= f1 && f1 <= frames(), "bad frame range");
  return kernels::strided_sum(data_.data(), entities_, entity, f0, f1);
}

std::size_t SampledSeries::frame_of(SimTime t) const {
  if (dt_ <= 0.0 || frames() == 0) return 0;
  if (t <= 0.0) return 0;
  const auto f = static_cast<std::size_t>(t / dt_);
  return f >= frames() ? frames() - 1 : f;
}

// ------------------------------------------------------------ PrefixSeries

PrefixSeries::PrefixSeries(const SampledSeries& s)
    : entities_(s.entities()), dt_(s.dt()) {
  const std::size_t frames = s.frames();
  if (entities_ == 0) return;
  prefix_.assign((frames + 1) * entities_, 0.0);
  // P[f+1][e] = P[f][e] + frame f — the same sequential accumulation
  // SampledSeries::range_sum(e, 0, f) performs, so prefix deltas starting
  // at frame 0 reproduce it bit for bit. Lanes (entities) are independent,
  // so the SIMD frame pass is bit-identical to the scalar loop.
  const float* raw = s.data();
  for (std::size_t f = 0; f < frames; ++f) {
    kernels::prefix_add_frame(raw + f * entities_, &prefix_[f * entities_],
                              &prefix_[(f + 1) * entities_], entities_);
  }
}

double PrefixSeries::range_sum(std::size_t entity, std::size_t f0,
                               std::size_t f1) const {
  DV_REQUIRE(entity < entities_, "entity out of range");
  DV_REQUIRE(f0 <= f1 && f1 <= frames(), "bad frame range");
  return prefix_[f1 * entities_ + entity] - prefix_[f0 * entities_ + entity];
}

std::pair<std::size_t, std::size_t> PrefixSeries::frame_range(
    double t0, double t1) const {
  const std::size_t n = frames();
  if (dt_ <= 0.0 || n == 0) return {0, 0};
  const std::size_t f0 = static_cast<std::size_t>(std::max(0.0, t0 / dt_));
  std::size_t f1 = t1 >= static_cast<double>(n) * dt_
                       ? n
                       : static_cast<std::size_t>(std::max(0.0, t1 / dt_));
  f1 = std::min(f1, n);
  return {std::min(f0, f1), f1};
}

// ------------------------------------------------------------ RunMetrics

std::vector<RouterMetrics> RunMetrics::derive_routers() const {
  const std::uint32_t a = routers_per_group;
  const std::uint32_t n_routers = groups * a;
  std::vector<RouterMetrics> out(n_routers);
  for (std::uint32_t r = 0; r < n_routers; ++r) {
    out[r].router = r;
    out[r].group = r / a;
    out[r].rank = r % a;
  }
  for (const auto& l : local_links) {
    out[l.src_router].local_traffic += l.traffic;
    out[l.src_router].local_sat_time += l.sat_time;
  }
  for (const auto& l : global_links) {
    out[l.src_router].global_traffic += l.traffic;
    out[l.src_router].global_sat_time += l.sat_time;
  }
  for (std::uint32_t r = 0; r < n_routers; ++r) {
    if (r < router_downtime.size()) out[r].downtime = router_downtime[r];
    if (r < router_retries.size()) out[r].retries = router_retries[r];
    if (r < router_drops.size()) out[r].pkts_dropped = router_drops[r];
  }
  return out;
}

double RunMetrics::total_local_traffic() const {
  double s = 0.0;
  for (const auto& l : local_links) s += l.traffic;
  return s;
}

double RunMetrics::total_global_traffic() const {
  double s = 0.0;
  for (const auto& l : global_links) s += l.traffic;
  return s;
}

double RunMetrics::total_terminal_traffic() const {
  double s = 0.0;
  for (const auto& t : terminals) s += t.data_size;
  return s;
}

double RunMetrics::total_injected() const { return total_terminal_traffic(); }

std::uint64_t RunMetrics::total_packets_finished() const {
  std::uint64_t s = 0;
  for (const auto& t : terminals) s += t.packets_finished;
  return s;
}

// ------------------------------------------------------------ text format
//
// One JSON object, streamed between the bytes and the columns with no
// json::Value tree (docs/RUN_FORMAT.md, "Text format").

namespace {

// Column names of the text rows, for error messages.
constexpr const char* kLinkColumns[] = {
    "src_router", "src_port", "dst_router", "dst_port", "traffic",
    "sat_time", "downtime", "retries", "pkts_dropped"};
constexpr const char* kTerminalColumns[] = {
    "router", "port", "data_size", "sat_time", "packets_finished",
    "sum_latency", "sum_hops", "job", "packets_rerouted", "packets_dropped",
    "downtime"};

struct SeriesField {
  const char* key;
  SampledSeries RunMetrics::*member;
};
constexpr SeriesField kSeries[] = {
    {"local_traffic_ts", &RunMetrics::local_traffic_ts},
    {"local_sat_ts", &RunMetrics::local_sat_ts},
    {"global_traffic_ts", &RunMetrics::global_traffic_ts},
    {"global_sat_ts", &RunMetrics::global_sat_ts},
    {"term_traffic_ts", &RunMetrics::term_traffic_ts},
    {"term_sat_ts", &RunMetrics::term_sat_ts},
};

// ---- writer

[[noreturn]] void throw_non_finite(const std::string& where, double v) {
  throw Error("cannot write the run as text: " + where + " is " +
              (std::isnan(v) ? "NaN" : v > 0 ? "infinity" : "-infinity") +
              ", which JSON cannot hold; save it as .dvr to keep the value");
}

void put_finite(json::Writer& w, double v, const std::string& where) {
  if (!std::isfinite(v)) throw_non_finite(where, v);
  w.number(v);
}

/// One link or terminal row; `names` labels the columns for the error.
template <std::size_t N>
void put_row(json::Writer& w, const char* section, std::size_t row,
             const double (&cells)[N], const char* const (&names)[N]) {
  w.raw(row ? ",[" : "[");
  for (std::size_t c = 0; c < N; ++c) {
    if (c) w.raw(',');
    if (!std::isfinite(cells[c])) {
      throw_non_finite(std::string(section) + " row " + std::to_string(row) +
                           ", column " + std::to_string(c) + " (" +
                           names[c] + ")",
                       cells[c]);
    }
    w.number(cells[c]);
  }
  w.raw(']');
}

void put_links(json::Writer& w, const char* key,
               const std::vector<LinkMetrics>& links) {
  w.raw(",\"").raw(key).raw("\":[");
  for (std::size_t i = 0; i < links.size(); ++i) {
    const LinkMetrics& l = links[i];
    const double cells[] = {static_cast<double>(l.src_router),
                            static_cast<double>(l.src_port),
                            static_cast<double>(l.dst_router),
                            static_cast<double>(l.dst_port),
                            l.traffic,
                            l.sat_time,
                            l.downtime,
                            static_cast<double>(l.retries),
                            static_cast<double>(l.pkts_dropped)};
    put_row(w, key, i, cells, kLinkColumns);
  }
  w.raw(']');
}

void put_terminals(json::Writer& w, const std::vector<TerminalMetrics>& ts) {
  w.raw(",\"terminals\":[");
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const TerminalMetrics& t = ts[i];
    const double cells[] = {static_cast<double>(t.router),
                            static_cast<double>(t.port),
                            t.data_size,
                            t.sat_time,
                            static_cast<double>(t.packets_finished),
                            t.sum_latency,
                            t.sum_hops,
                            static_cast<double>(t.job),
                            static_cast<double>(t.packets_rerouted),
                            static_cast<double>(t.packets_dropped),
                            t.downtime};
    put_row(w, "terminals", i, cells, kTerminalColumns);
  }
  w.raw(']');
}

void put_counts(json::Writer& w, const std::vector<std::uint64_t>& counts) {
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i) w.raw(',');
    w.number(static_cast<double>(counts[i]));
  }
}

void put_series(json::Writer& w, const char* key, const SampledSeries& s) {
  w.raw(",\"").raw(key).raw("\":{\"entities\":");
  w.number(static_cast<double>(s.entities())).raw(",\"dt\":");
  put_finite(w, s.dt(), std::string(key) + " dt");
  w.raw(",\"frames\":[");
  const float* v = s.data();
  for (std::size_t f = 0; f < s.frames(); ++f) {
    w.raw(f ? ",[" : "[");
    for (std::size_t e = 0; e < s.entities(); ++e, ++v) {
      if (e) w.raw(',');
      if (!std::isfinite(*v)) {
        throw_non_finite(std::string(key) + " frame " + std::to_string(f) +
                             ", entity " + std::to_string(e),
                         *v);
      }
      w.number(static_cast<double>(*v));
    }
    w.raw(']');
  }
  w.raw("]}");
}

// ---- reader

std::int64_t to_int(double v) {
  return static_cast<std::int64_t>(std::llround(v));
}

/// Reads an array of rows of N numbers, or of the `legacy` width that
/// predates fault injection; fill(row, cells, width) converts each one.
template <std::size_t N, class Row, class Fill>
std::vector<Row> read_rows(json::Reader& r, std::size_t legacy, Fill fill) {
  std::vector<Row> out;
  r.begin_array();
  for (std::size_t i = 0; r.next_item(i); ++i) {
    r.peek();
    const std::size_t at = r.pos();
    double cells[N] = {};
    std::size_t width = 0;
    r.begin_array();
    for (; r.next_item(width); ++width) {
      const double v = r.number();
      if (width < N) cells[width] = v;
    }
    if (width != N && width != legacy) {
      throw r.error_at(at, "row " + std::to_string(i) + " has " +
                               std::to_string(width) + " columns, expected " +
                               std::to_string(N) + " or the legacy " +
                               std::to_string(legacy));
    }
    fill(out.emplace_back(), cells, width);
  }
  return out;
}

std::vector<LinkMetrics> read_links(json::Reader& r) {
  return read_rows<9, LinkMetrics>(
      r, 6, [](LinkMetrics& l, const double* c, std::size_t width) {
        l.src_router = static_cast<std::uint32_t>(to_int(c[0]));
        l.src_port = static_cast<std::uint32_t>(to_int(c[1]));
        l.dst_router = static_cast<std::uint32_t>(to_int(c[2]));
        l.dst_port = static_cast<std::uint32_t>(to_int(c[3]));
        l.traffic = c[4];
        l.sat_time = c[5];
        if (width == 9) {
          l.downtime = c[6];
          l.retries = static_cast<std::uint64_t>(to_int(c[7]));
          l.pkts_dropped = static_cast<std::uint64_t>(to_int(c[8]));
        }
      });
}

std::vector<TerminalMetrics> read_terminals(json::Reader& r) {
  return read_rows<11, TerminalMetrics>(
      r, 8, [](TerminalMetrics& t, const double* c, std::size_t width) {
        t.router = static_cast<std::uint32_t>(to_int(c[0]));
        t.port = static_cast<std::uint32_t>(to_int(c[1]));
        t.data_size = c[2];
        t.sat_time = c[3];
        t.packets_finished = static_cast<std::uint64_t>(to_int(c[4]));
        t.sum_latency = c[5];
        t.sum_hops = c[6];
        t.job = static_cast<std::int32_t>(to_int(c[7]));
        if (width == 11) {
          t.packets_rerouted = static_cast<std::uint64_t>(to_int(c[8]));
          t.packets_dropped = static_cast<std::uint64_t>(to_int(c[9]));
          t.downtime = c[10];
        }
      });
}

std::vector<double> read_numbers(json::Reader& r) {
  std::vector<double> out;
  r.begin_array();
  for (std::size_t i = 0; r.next_item(i); ++i) out.push_back(r.number());
  return out;
}

std::vector<std::uint64_t> read_counts(json::Reader& r) {
  std::vector<std::uint64_t> out;
  r.begin_array();
  for (std::size_t i = 0; r.next_item(i); ++i) {
    out.push_back(static_cast<std::uint64_t>(r.integer()));
  }
  return out;
}

std::vector<float> read_frames(json::Reader& r, std::size_t entities) {
  std::vector<float> data;
  r.begin_array();
  for (std::size_t f = 0; r.next_item(f); ++f) {
    r.peek();
    const std::size_t at = r.pos();
    r.begin_array();
    std::size_t e = 0;
    for (; r.next_item(e); ++e) data.push_back(static_cast<float>(r.number()));
    if (e != entities) {
      throw r.error_at(at, "frame " + std::to_string(f) + " has " +
                               std::to_string(e) + " values, expected " +
                               std::to_string(entities) + " entities");
    }
  }
  return data;
}

/// Reads one series object. Its keys may come in any order: frames met
/// before `entities` are skipped, then read once the width is known.
SampledSeries read_series(json::Reader& r) {
  std::optional<std::size_t> entities, frames_at, read_width;
  std::optional<double> dt;
  std::vector<float> data;
  r.begin_object();
  std::string key;
  for (std::size_t i = 0; r.next_key(i, key); ++i) {
    if (key == "entities") {
      entities = static_cast<std::size_t>(r.integer());
    } else if (key == "dt") {
      dt = r.number();
    } else if (key == "frames") {
      r.peek();
      frames_at = r.pos();
      read_width = entities;
      if (entities) {
        data = read_frames(r, *entities);
      } else {
        r.skip_value();
      }
    } else {
      r.skip_value();
    }
  }
  if (!entities) throw r.error("missing required key \"entities\"");
  if (!dt) throw r.error("missing required key \"dt\"");
  if (!frames_at) throw r.error("missing required key \"frames\"");
  if (read_width != entities) {
    const std::size_t end = r.pos();
    r.seek(*frames_at);
    data = read_frames(r, *entities);
    r.seek(end);
  }
  return SampledSeries::adopt(*entities, *dt, std::move(data));
}

/// An optional scalar: a value of another type leaves the default, as the
/// format has always read it.
double number_or_zero(json::Reader& r) {
  if (r.at_number()) return r.number();
  r.skip_value();
  return 0.0;
}

std::string string_or_empty(json::Reader& r) {
  if (r.at_string()) return r.string();
  r.skip_value();
  return {};
}

}  // namespace

std::string RunMetrics::to_text() const {
  std::size_t values = 9 * (local_links.size() + global_links.size()) +
                       11 * terminals.size() + 3 * router_downtime.size();
  for (const auto& f : kSeries) {
    values += (this->*f.member).frames() * (this->*f.member).entities();
  }
  json::Writer w(512 + 4 * values);  // most values print as 1-3 bytes
  w.raw("{\"groups\":").number(groups);
  w.raw(",\"routers_per_group\":").number(routers_per_group);
  w.raw(",\"terminals_per_router\":").number(terminals_per_router);
  w.raw(",\"global_per_router\":").number(global_per_router);
  w.raw(",\"workload\":").string(workload);
  w.raw(",\"routing\":").string(routing);
  w.raw(",\"placement\":").string(placement);
  w.raw(",\"seed\":").number(static_cast<double>(seed));
  w.raw(",\"end_time\":");
  put_finite(w, end_time, "end_time");
  w.raw(",\"job_names\":[");
  for (std::size_t i = 0; i < job_names.size(); ++i) {
    if (i) w.raw(',');
    w.string(job_names[i]);
  }
  w.raw(']');
  put_links(w, "local_links", local_links);
  put_links(w, "global_links", global_links);
  put_terminals(w, terminals);
  if (!router_downtime.empty() || !router_retries.empty() ||
      !router_drops.empty()) {
    w.raw(",\"router_downtime\":[");
    for (std::size_t i = 0; i < router_downtime.size(); ++i) {
      if (i) w.raw(',');
      const double d = router_downtime[i];
      if (!std::isfinite(d)) {
        throw_non_finite("router_downtime entry " + std::to_string(i), d);
      }
      w.number(d);
    }
    w.raw("],\"router_retries\":[");
    put_counts(w, router_retries);
    w.raw("],\"router_drops\":[");
    put_counts(w, router_drops);
    w.raw(']');
  }
  w.raw(",\"sample_dt\":");
  put_finite(w, sample_dt, "sample_dt");
  if (has_time_series()) {
    for (const auto& f : kSeries) put_series(w, f.key, this->*f.member);
  }
  w.raw('}');
  return w.take();
}

RunMetrics RunMetrics::from_text(std::string_view text) {
  if (text.substr(0, 3) == "\xEF\xBB\xBF") text.remove_prefix(3);
  json::Reader r(text);
  RunMetrics m;
  constexpr const char* kRequired[] = {
      "groups",      "routers_per_group", "terminals_per_router",
      "global_per_router", "local_links", "global_links", "terminals"};
  bool seen[std::size(kRequired)] = {};
  constexpr std::size_t kNoSeries = std::size(kSeries);
  std::optional<std::size_t> series_at[kNoSeries];  // where each value starts
  bool series_read[kNoSeries] = {};
  auto u32 = [&r] { return static_cast<std::uint32_t>(r.integer()); };
  auto in_key = [](const Error& e, const std::string& key) {
    return Error(std::string(e.what()) + " (key \"" + key + "\")");
  };

  r.begin_object();
  std::string key;
  for (std::size_t i = 0; r.next_key(i, key); ++i) {
    std::size_t k = 0;
    while (k < kNoSeries && key != kSeries[k].key) ++k;
    try {
      if (key == "groups") {
        m.groups = u32();
      } else if (key == "routers_per_group") {
        m.routers_per_group = u32();
      } else if (key == "terminals_per_router") {
        m.terminals_per_router = u32();
      } else if (key == "global_per_router") {
        m.global_per_router = u32();
      } else if (key == "workload") {
        m.workload = string_or_empty(r);
      } else if (key == "routing") {
        m.routing = string_or_empty(r);
      } else if (key == "placement") {
        m.placement = string_or_empty(r);
      } else if (key == "seed") {
        m.seed = static_cast<std::uint64_t>(number_or_zero(r));
      } else if (key == "end_time") {
        m.end_time = number_or_zero(r);
      } else if (key == "job_names") {
        m.job_names.clear();
        r.begin_array();
        for (std::size_t j = 0; r.next_item(j); ++j) {
          m.job_names.push_back(r.string());
        }
      } else if (key == "local_links") {
        m.local_links = read_links(r);
      } else if (key == "global_links") {
        m.global_links = read_links(r);
      } else if (key == "terminals") {
        m.terminals = read_terminals(r);
      } else if (key == "router_downtime") {
        m.router_downtime = read_numbers(r);
      } else if (key == "router_retries") {
        m.router_retries = read_counts(r);
      } else if (key == "router_drops") {
        m.router_drops = read_counts(r);
      } else if (key == "sample_dt") {
        m.sample_dt = number_or_zero(r);
      } else if (k < kNoSeries) {
        // Series are read only for a sampled run; one met before
        // sample_dt is skipped now and read at the end if needed.
        r.peek();
        series_at[k] = r.pos();
        series_read[k] = m.sample_dt > 0.0;
        if (series_read[k]) {
          m.*kSeries[k].member = read_series(r);
        } else {
          r.skip_value();
        }
      } else {
        r.skip_value();  // unknown key
      }
    } catch (const Error& e) {
      throw in_key(e, key);
    }
    for (std::size_t q = 0; q < std::size(kRequired); ++q) {
      if (key == kRequired[q]) seen[q] = true;
    }
  }
  const std::size_t close = r.pos() - 1;
  r.finish();
  for (std::size_t q = 0; q < std::size(kRequired); ++q) {
    if (!seen[q]) {
      throw r.error_at(close, std::string("missing required key \"") +
                                  kRequired[q] + "\"");
    }
  }
  for (std::size_t k = 0; k < kNoSeries; ++k) {
    SampledSeries& s = m.*kSeries[k].member;
    if (m.sample_dt <= 0.0) {
      s = SampledSeries();  // an unsampled run ignores any series
      continue;
    }
    if (!series_at[k]) {
      throw r.error_at(close, std::string("missing required key \"") +
                                  kSeries[k].key +
                                  "\" (the run is sampled: sample_dt > 0)");
    }
    if (!series_read[k]) {
      r.seek(*series_at[k]);
      try {
        s = read_series(r);
      } catch (const Error& e) {
        throw in_key(e, kSeries[k].key);
      }
    }
  }
  return m;
}

void RunMetrics::save(const std::string& path) const {
  std::string text;
  try {
    text = to_text();
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
  std::ofstream os(path, std::ios::binary);
  DV_REQUIRE(os.good(), "cannot open for writing: " + path);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
  DV_REQUIRE(os.good(), "write failed: " + path);
}

RunMetrics RunMetrics::load(const std::string& path) {
  // Packed runs dispatch on the on-disk magic, not the extension, so a
  // .dvr renamed to .json still loads.
  if (is_dvr_file(path)) return load_dvr(path);
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  DV_REQUIRE(is.good(), "cannot open for reading: " + path);
  const std::streamoff size = is.tellg();
  DV_REQUIRE(size >= 0, "cannot size: " + path);
  std::string text(static_cast<std::size_t>(size), '\0');
  is.seekg(0);
  is.read(text.data(), size);
  DV_REQUIRE(is.gcount() == size, "read failed: " + path);
  try {
    return from_text(text);
  } catch (const Error& e) {
    // Name the file at fault, so a failed sweep points at the run.
    throw Error(path + ": " + e.what());
  }
}

CsvTable RunMetrics::to_csv(const std::string& entity_class) const {
  CsvTable t;
  auto num = [](double v) { return fmt_double(v, 3); };
  if (entity_class == "local_links" || entity_class == "global_links") {
    const auto& links =
        entity_class == "local_links" ? local_links : global_links;
    t.header = {"src_router", "src_port", "dst_router",
                "dst_port",   "traffic",  "sat_time",
                "downtime",   "retries",  "pkts_dropped"};
    for (const auto& l : links) {
      t.rows.push_back({std::to_string(l.src_router), std::to_string(l.src_port),
                        std::to_string(l.dst_router), std::to_string(l.dst_port),
                        num(l.traffic), num(l.sat_time), num(l.downtime),
                        std::to_string(l.retries),
                        std::to_string(l.pkts_dropped)});
    }
    return t;
  }
  if (entity_class == "terminals") {
    t.header = {"router",      "port",     "data_size",    "sat_time",
                "packets",     "avg_latency", "avg_hops",  "job",
                "pkts_rerouted", "pkts_dropped", "downtime"};
    for (const auto& term : terminals) {
      t.rows.push_back({std::to_string(term.router), std::to_string(term.port),
                        num(term.data_size), num(term.sat_time),
                        std::to_string(term.packets_finished),
                        num(term.avg_latency()), num(term.avg_hops()),
                        std::to_string(term.job),
                        std::to_string(term.packets_rerouted),
                        std::to_string(term.packets_dropped),
                        num(term.downtime)});
    }
    return t;
  }
  if (entity_class == "routers") {
    t.header = {"router",        "group",          "rank",
                "global_traffic", "global_sat_time", "local_traffic",
                "local_sat_time", "downtime",       "retries",
                "pkts_dropped"};
    for (const auto& r : derive_routers()) {
      t.rows.push_back({std::to_string(r.router), std::to_string(r.group),
                        std::to_string(r.rank), num(r.global_traffic),
                        num(r.global_sat_time), num(r.local_traffic),
                        num(r.local_sat_time), num(r.downtime),
                        std::to_string(r.retries),
                        std::to_string(r.pkts_dropped)});
    }
    return t;
  }
  throw Error("unknown entity class for csv export: " + entity_class);
}

}  // namespace dv::metrics
