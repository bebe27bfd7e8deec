// The text run format: the writer's pinned bytes, the reader's tolerance
// of hand-edited files, its robustness on truncated input, and the
// refusal to write values JSON cannot hold.
//
// The byte pins hash what save() and json::dump() write. Their constants
// were recorded before the writer was rewritten to stream, so they hold
// the streaming writer to the exact bytes of the tree-based one. Change
// them only with an intended format change, and say so in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "app/runner.hpp"
#include "fault/fault.hpp"
#include "json/json.hpp"
#include "metrics/dvr.hpp"
#include "metrics/run_metrics.hpp"
#include "metrics/run_store.hpp"
#include "obs/profile.hpp"

namespace dv::metrics {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << text;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string saved_text(const RunMetrics& run) {
  const auto path = temp_path("dv_run_text_pin.json");
  run.save(path);
  std::string text = read_file(path);
  std::remove(path.c_str());
  return text;
}

RunMetrics load_text(const std::string& text) {
  const auto path = temp_path("dv_run_text_load.json");
  write_file(path, text);
  try {
    RunMetrics run = RunMetrics::load(path);
    std::remove(path.c_str());
    return run;
  } catch (...) {
    std::remove(path.c_str());
    throw;
  }
}

RunMetrics simulated(std::uint32_t p, const char* routing, double sample_dt,
                     const char* fault) {
  app::ExperimentConfig cfg;
  cfg.dragonfly_p = p;
  app::JobSpec job;
  job.workload = "uniform_random";
  cfg.jobs = {job};
  cfg.routing = routing::algo_from_string(routing);
  cfg.sample_dt = sample_dt;
  if (*fault) cfg.faults.faults.push_back(fault::parse_fault(fault));
  return app::run_experiment(cfg).run;
}

struct Pin {
  const char* name;
  std::size_t bytes;
  std::uint64_t hash;
};

void expect_pinned(const Pin& pin, const std::string& text) {
  EXPECT_EQ(text.size(), pin.bytes) << pin.name;
  EXPECT_EQ(fnv1a(text), pin.hash)
      << pin.name << ": actual 0x" << std::hex << fnv1a(text);
}

// ------------------------------------------------------------ writer pins

TEST(MetricsTextPinned, SavedRunsMatchRecordedBytes) {
  // DF(3) uniform random, sampled and not; DF(4) with router g1.r0 down
  // for the first 400 us, so router_downtime/retries/drops are written.
  const RunMetrics sampled = simulated(3, "adaptive", 5000, "");
  const RunMetrics unsampled = simulated(3, "minimal", 0, "");
  const RunMetrics faulted =
      simulated(4, "minimal", 0, "router:g1.r0@0:400000");
  ASSERT_FALSE(faulted.router_downtime.empty());
  expect_pinned({"sampled", 2100433, 0x69929be1f5fa3020ull},
                saved_text(sampled));
  expect_pinned({"unsampled", 39282, 0x627b7905619d7130ull},
                saved_text(unsampled));
  expect_pinned({"faulted", 129938, 0xf37db5a7688014e1ull},
                saved_text(faulted));
}

TEST(MetricsTextPinned, ProfileAndStoreIndexMatchRecordedBytes) {
  obs::RunProfile prof;
  prof.wall_seconds = 1.0 / 3.0;
  prof.counters = {{"netsim.events", 123456789}, {"quote\"back\\slash", 7},
                   {"ctl\n\t\x01", 1ull << 60}};
  prof.gauges = {{"ratio", 0.1},
                 {"tiny", 1.25e-7},
                 {"huge", 1e20},
                 {"negative", -2.5},
                 {"integral", 1e14},
                 {"not_a_number", std::nan("")}};
  prof.phases = {{"sim", 2.75, 1}, {"sim/ev.inject", 0.000123, 4096}};
  expect_pinned({"profile", 586, 0x103f84ba6feb65ceull},
                json::dump(prof.to_json(), 2));

  const auto dir = temp_path("dv_run_text_pin_store");
  fs::remove_all(dir);
  {
    RunStore store(dir);
    store.add(simulated(3, "minimal", 0, ""), "text_run");
    store.add(simulated(3, "adaptive", 5000, ""), "packed run",
              StoreFormat::kPacked);
  }
  const std::string index = read_file((fs::path(dir) / "index.json").string());
  fs::remove_all(dir);
  expect_pinned({"index", 511, 0xc0c9191cf386e499ull}, index);
}

// ------------------------------------------------------ reader tolerance

// One small sampled run, as (key, value text) members in the order the
// writer emits them: 2 groups of 2 routers, and one local link, one
// global link and one terminal per router.
using Members = std::vector<std::pair<std::string, std::string>>;

std::string series(const std::string& frames) {
  return R"({"entities":4,"dt":500,"frames":)" + frames + "}";
}

Members tiny_members() {
  return {
      {"groups", "2"},
      {"routers_per_group", "2"},
      {"terminals_per_router", "1"},
      {"global_per_router", "1"},
      {"workload", R"("tiny \"run\"")"},
      {"routing", R"("minimal")"},
      {"placement", R"("contiguous")"},
      {"seed", "7"},
      {"end_time", "1234.5"},
      {"job_names", R"(["job0","job1"])"},
      {"local_links",
       "[[0,0,1,0,4096,12.5,0,0,0],[1,0,0,0,2048,0,0,0,0],"
       "[2,0,3,0,1024,0.25,0,0,0],[3,0,2,0,0,0,0,0,0]]"},
      {"global_links",
       "[[0,1,2,1,512,3,0,0,0],[1,1,3,1,0,0,0,0,0],"
       "[2,1,0,1,256,0,0,0,0],[3,1,1,1,128,1.5,0,0,0]]"},
      {"terminals",
       "[[0,2,4096,1.5,4,800,12,0,0,0,0],[1,2,2048,0,2,300,6,0,0,0,0],"
       "[2,2,1024,0,1,99.75,3,1,0,0,0],[3,2,0,0,0,0,0,-1,0,0,0]]"},
      {"sample_dt", "500"},
      {"local_traffic_ts", series("[[4096,0,1024,0],[0,2048,0,0]]")},
      {"local_sat_ts", series("[[12.5,0,0.25,0],[0,0,0,0]]")},
      {"global_traffic_ts", series("[[512,0,0,128],[0,0,256,0]]")},
      {"global_sat_ts", series("[[3,0,0,1.5],[0,0,0,0]]")},
      {"term_traffic_ts", series("[[4096,0,0,0],[0,2048,1024,0]]")},
      {"term_sat_ts", series("[[1.5,0,0,0],[0,0,0,0]]")},
  };
}

std::string join(const Members& members, const std::string& sep = ",\n",
                 const std::string& tail = "") {
  std::string out = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) out += sep;
    out += "\"" + members[i].first + "\":" + members[i].second;
  }
  return out + tail + "}";
}

std::string& value_of(Members& members, const std::string& key) {
  for (auto& [k, v] : members) {
    if (k == key) return v;
  }
  throw Error("no member " + key);
}

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size())) {
    s.replace(at, from.size(), to);
  }
  return s;
}

// The content uid the tree-based loader gave the tiny run; every variant
// below must load to the same content.
constexpr std::uint64_t kTinyUid = 0x399fe71c7cd95d88ull;

TEST(MetricsTextReader, HandEditedVariantsLoadToTheSameContent) {
  std::vector<std::pair<std::string, std::string>> variants;
  variants.emplace_back("as written", join(tiny_members()));
  {
    Members m = tiny_members();
    std::reverse(m.begin(), m.end());  // series before sample_dt
    variants.emplace_back("reordered keys", join(m));
  }
  {
    Members m = tiny_members();
    m.insert(m.begin() + 5,
             {"annotations", R"({"who":{"note":"x","tags":[1,{"a":null}]},)"
                             R"("ok":true,"list":[[],{}]})"});
    m.emplace_back("zz_unknown", "[1,2,3]");
    variants.emplace_back("unknown keys", join(m));
  }
  {
    Members m = tiny_members();
    value_of(m, "local_links") =
        replace_all(value_of(m, "local_links"), ",0,0,0]", "]");
    value_of(m, "global_links") =
        replace_all(value_of(m, "global_links"), ",0,0,0]", "]");
    value_of(m, "terminals") =
        replace_all(value_of(m, "terminals"), ",0,0,0]", "]");
    variants.emplace_back("legacy 6- and 8-column rows", join(m));
  }
  {
    Members m = tiny_members();
    value_of(m, "local_links") = replace_all(
        value_of(m, "local_links"), "]", ", /* trailing */ ]");
    value_of(m, "job_names") = R"(['job0', "job1",])";
    value_of(m, "term_sat_ts") =
        "{entities: 4, dt: 500, frames: [[1.5,0,0,0,],[0,0,0,0],],}";
    variants.emplace_back(
        "comments and trailing commas",
        "// a hand-edited run\n" + join(m, ", // next\n", ",\n") + "\n");
  }
  {
    Members m = tiny_members();
    value_of(m, "global_per_router") = "+1";
    value_of(m, "seed") = "+7";
    value_of(m, "local_links") =
        replace_all(value_of(m, "local_links"), "2048,0,", "2048,1e-400,");
    value_of(m, "term_sat_ts") = series("[[1.5e0,0,0,0],[1e-400,0,0,+0]]");
    variants.emplace_back("+1 and 1e-400 tokens", join(m));
  }
  {
    Members m = tiny_members();
    for (auto& [k, v] : m) {
      if (k.size() > 3 && k.compare(k.size() - 3, 3, "_ts") == 0) {
        const auto at = v.find(R"("frames":)");
        v = "{" + v.substr(at, v.size() - at - 1) +
            R"(,"dt":500,"entities":4})";
      }
    }
    variants.emplace_back("frames before entities", join(m));
  }
  variants.emplace_back(
      "BOM and CRLF",
      "\xEF\xBB\xBF" + replace_all(join(tiny_members()), "\n", "\r\n") +
          "\r\n \t\r\n");

  for (const auto& [name, text] : variants) {
    try {
      const RunMetrics run = load_text(text);
      EXPECT_EQ(run_content_uid(run), kTinyUid)
          << name << ": actual 0x" << std::hex << run_content_uid(run);
    } catch (const Error& e) {
      ADD_FAILURE() << name << ": " << e.what();
    }
  }
}

TEST(MetricsTextReader, EveryPrefixThrows) {
  const std::string text = join(tiny_members());
  ASSERT_EQ(run_content_uid(load_text(text)), kTinyUid);
  for (std::size_t n = 0; n < text.size(); ++n) {
    EXPECT_THROW(load_text(text.substr(0, n)), Error) << "prefix " << n;
  }
}

// --------------------------------------------------- non-finite refusal

TEST(MetricsTextWriter, RefusesNonFiniteValuesAndWritesNothing) {
  const RunMetrics base = load_text(join(tiny_members()));
  struct Case {
    const char* what;
    void (*poison)(RunMetrics&);
    std::vector<std::string> expect;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Case> cases = {
      {"link traffic",
       [](RunMetrics& m) { m.global_links[1].traffic = std::nan(""); },
       {"global_links", "row 1", "traffic", ".dvr"}},
      {"terminal latency",
       [](RunMetrics& m) { m.terminals[3].sum_latency = kInf; },
       {"terminals", "row 3", "sum_latency", ".dvr"}},
      {"end time", [](RunMetrics& m) { m.end_time = -kInf; },
       {"end_time", ".dvr"}},
      {"series frame",
       [](RunMetrics& m) {
         std::vector<float> data(m.local_sat_ts.data(),
                                 m.local_sat_ts.data() + 8);
         data[6] = std::nanf("");
         m.local_sat_ts = SampledSeries::adopt(4, 500, std::move(data));
       },
       {"local_sat_ts", "frame 1", "entity 2", ".dvr"}},
  };
  const auto path = temp_path("dv_run_text_nonfinite.json");
  for (const auto& c : cases) {
    RunMetrics run = base;
    c.poison(run);
    std::remove(path.c_str());
    try {
      run.save(path);
      ADD_FAILURE() << c.what << ": save accepted a non-finite value";
    } catch (const Error& e) {
      const std::string msg = e.what();
      for (const auto& part : c.expect) {
        EXPECT_NE(msg.find(part), std::string::npos)
            << c.what << ": '" << part << "' missing from: " << msg;
      }
    }
    EXPECT_FALSE(fs::exists(path)) << c.what << ": a file was left behind";
    // The packed format keeps the value.
    const auto dvr = temp_path("dv_run_text_nonfinite.dvr");
    save_dvr(run, dvr);
    EXPECT_EQ(run_content_uid(RunMetrics::load(dvr)), run_content_uid(run))
        << c.what;
    std::remove(dvr.c_str());
  }
}

}  // namespace
}  // namespace dv::metrics
