// rcast_e2e — runs one end-to-end benchmark workload and prints one JSON
// object (checks, end-to-end metrics, per-layer metrics) as its last line.
// perfbench/run.py builds this binary and turns its output into the
// benchmark's result line.
//
//   rcast_e2e --workload=NAME --seed=N --seconds=S --trace=0|1
//             --root=DIR --work-dir=DIR --daemon=PATH [--spans-out=FILE]
//             [--tiny] [--sim-seed=N] [--full]
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/json.hpp"
#include "harness/common.hpp"
#include "util/flags.hpp"

namespace rcast::perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

bool Spans::write(const std::string& path) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[s.parent] += s.end_s - s.start_s;
  }
  campaign::json::Writer w;
  w.begin_object().key("spans").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.key("id").value(static_cast<std::uint64_t>(i));
    w.key("name").value(s.name);
    w.key("parent").value(static_cast<std::int64_t>(s.parent));
    w.key("start_s").value(s.start_s);
    w.key("end_s").value(s.end_s);
    w.key("self_s").value(s.end_s - s.start_s - child[i]);
    w.end_object();
  }
  w.end_array().end_object();
  std::ofstream out(path, std::ios::binary);
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

namespace {

// Every per-layer metric a traced run reports, on every workload; a layer a
// workload leaves idle (or cannot observe) reads 0.
constexpr const char* kLayerMetrics[] = {
    "scenario.build_s",
    "scenario.run_s",
    "sim.events",
    "sim.events_per_s",
    "sim.ns_per_event",
    "sim.batch_mean",
    "sim.queue_depth_hw",
    "sim.pool_hit_ratio",
    "sim.heap_bytes",
    "sim.shard.cpu_util",
    "sim.shard.node_imbalance",
    "sim.shard.speedup",
    "phy.tx",
    "phy.rx_ok",
    "phy.rx_lost.collision",
    "phy.rx_lost.busy",
    "phy.rx_lost.asleep",
    "phy.rx_lost.tx",
    "phy.rx_waste_ratio",
    "phy.cs_cells_visited",
    "phy.arrival_group_mean",
    "geo.spatial_queries",
    "geo.candidates_per_query",
    "mac.atim_tx",
    "mac.atim_fail_ratio",
    "mac.overhear_commit_ratio",
    "mac.sleeps",
    "mac.data_fail_ratio",
    "mac.queue_drops",
    "power.am_windows",
    "routing.rreq_tx",
    "routing.rrep_tx",
    "routing.rerr_tx",
    "routing.forwarded",
    "routing.pdr",
    "mobility.segment_refreshes",
    "energy.radio_transitions",
    "campaign.job_s.p50",
    "campaign.job_s.max",
    "campaign.worker_util",
    "campaign.export_s",
    "campaign.store_bytes_per_job",
    "campaign.append_us",
    "serving.ready_s",
    "serving.results_us.p50",
    "serving.aggregate_cell_us.p50",
    "serving.aggregate_csv_us.p50",
    "serving.cache_hit_ratio",
    "serving.query_p99_ms",
    "serving.refresh_lag_ms",
    "serving.gen_late_ms",
    "serving.rate_at_slo_rps",
    "trace.overhead_ratio",
};

void write_metrics(campaign::json::Writer& w, const std::map<std::string, double>& m) {
  w.begin_object();
  for (const auto& [k, v] : m) w.key(k).value(v);
  w.end_object();
}

}  // namespace
}  // namespace rcast::perfbench

int main(int argc, char** argv) {
  using namespace rcast;
  using namespace rcast::perfbench;
  const Flags flags(argc, argv);
  Options opt;
  opt.workload = flags.get_string("workload", "");
  opt.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opt.seconds = flags.get_double("seconds", 10.0);
  opt.trace = flags.get_int("trace", 0) != 0;
  opt.tiny = flags.get_bool("tiny", false);
  opt.sim_seed = static_cast<std::uint64_t>(flags.get_int("sim-seed", 0));
  opt.full = flags.get_bool("full", false);
  opt.root = flags.get_string("root", ".");
  opt.work_dir = flags.get_string("work-dir", "");
  opt.daemon = flags.get_string("daemon", "");
  opt.spans_out = flags.get_string("spans-out", "");
  if (!flags.unknown().empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", flags.unknown().front().c_str());
    return 2;
  }
  if (opt.work_dir.empty()) {
    std::fprintf(stderr, "--work-dir is required\n");
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);

  Report rep;
  Spans spans(opt.trace);
  try {
    if (opt.workload == "paper_rcast") {
      run_paper_rcast(opt, rep, spans);
    } else if (opt.workload == "fig6_campaign") {
      run_fig6_campaign(opt, rep, spans);
    } else if (opt.workload == "shard_100k") {
      run_shard_100k(opt, rep, spans);
    } else if (opt.workload == "campaignd_query") {
      run_campaignd_query(opt, rep, spans);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace) {
    for (const auto& [k, v] : rep.layers) {
      if (std::find_if(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                       [&](const char* n) { return k == n; }) ==
          std::end(kLayerMetrics)) {
        std::fprintf(stderr, "internal: unlisted layer metric %s\n", k.c_str());
        return 1;
      }
    }
    for (const char* n : kLayerMetrics) rep.layers.try_emplace(n, 0.0);
    if (!opt.spans_out.empty() && !spans.write(opt.spans_out)) {
      std::fprintf(stderr, "cannot write %s\n", opt.spans_out.c_str());
      return 1;
    }
  }

  campaign::json::Writer w;
  w.begin_object();
  w.key("workload").value(opt.workload);
  w.key("attempted").value(rep.attempted);
  w.key("failed").value(rep.failed);
  w.key("errors").begin_array();
  for (const std::string& e : rep.errors) w.value(e);
  w.end_array();
  w.key("e2e");
  write_metrics(w, rep.e2e);
  w.key("layers");
  write_metrics(w, rep.layers);
  w.key("info").begin_object();
  for (const auto& [k, v] : rep.info) w.key(k).value(v);
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
