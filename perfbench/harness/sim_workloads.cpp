// The three simulator workloads: paper_rcast (one single-queue run of the
// paper's headline cell), fig6_campaign (the reduced Fig. 6 grid through the
// campaign engine, then CSV export) and shard_100k (one 100k-node run on the
// sharded executor). All timing is taken around public entry points:
// scenario::Network construction and run(), campaign::run_campaign and
// campaign::export_aggregate_csv.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/json.hpp"
#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "campaign/runner.hpp"
#include "harness/common.hpp"
#include "harness/tally.hpp"
#include "scenario/scenario.hpp"

namespace rcast::perfbench {
namespace {

namespace fs = std::filesystem;
using scenario::Network;
using scenario::RunResult;
using scenario::ScenarioConfig;

// ------------------------------------------------------------- helpers --

/// Canonical text of everything a run computes (perf timings excluded), so
/// its digest changes iff the simulated outcome or the event count changes.
std::string result_text(const RunResult& r) {
  std::string s;
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g,", v);
    s += buf;
  };
  const auto cnt = [&](std::uint64_t v) {
    s += std::to_string(v);
    s += ',';
  };
  s += std::string(scenario::to_string(r.scheme)) + ',';
  num(r.duration_s);
  num(r.total_energy_j);
  num(r.energy_variance);
  num(r.energy_mean_j);
  num(r.energy_min_j);
  num(r.energy_max_j);
  for (double e : r.per_node_energy_j) num(e);
  cnt(r.originated);
  cnt(r.delivered);
  num(r.pdr_percent);
  num(r.avg_delay_s);
  num(r.delay_p50_s);
  num(r.delay_p90_s);
  num(r.avg_route_wait_s);
  num(r.avg_transit_s);
  num(r.energy_per_bit_j);
  cnt(r.control_tx);
  num(r.normalized_overhead);
  for (std::uint64_t v : r.role_numbers) cnt(v);
  for (std::uint64_t v :
       {r.atim_tx, r.data_tx_attempts, r.overhear_commits, r.overhear_declines,
        r.mac_sleeps, r.rreq_tx, r.rrep_tx, r.rerr_tx, r.hello_tx,
        r.data_tx_failed, r.data_salvaged}) {
    cnt(v);
  }
  for (std::uint64_t v : r.drops) cnt(v);
  cnt(r.dead_nodes);
  num(r.first_death_s);
  num(r.partition_time_s);
  cnt(r.events_executed);
  return s;
}

/// Comma-separated samples, for the report's info block.
std::string join(const std::vector<double>& v) {
  std::string s;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", s.empty() ? "" : ",", x);
    s += buf;
  }
  return s;
}

std::string result_digest(const RunResult& r) {
  return hex16(fnv1a(result_text(r)));
}

/// The golden digest/file name recorded for `key` in goldens/goldens.json,
/// or "" when none is recorded.
std::string golden(const Options& opt, const std::string& key) {
  const std::string text = read_file(opt.root + "/perfbench/goldens/goldens.json");
  if (text.empty()) return "";
  const campaign::json::Value v = campaign::json::parse(text);
  const campaign::json::Value* g = v.find(key);
  return g != nullptr && g->is_string() ? g->as_string() : "";
}

/// Checks `digest` against the golden for `key` when the run uses the
/// workload's own inputs; otherwise records the digest for comparison
/// between commits.
void check_golden(const Options& opt, Report& rep, const std::string& key,
                  const std::string& digest, bool default_inputs) {
  rep.info[key + ".digest"] = digest;
  if (!default_inputs) return;
  const std::string want = golden(opt, key);
  rep.check(!want.empty() && want == digest,
            key + ": digest " + digest + " != golden '" + want + "'");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Runs units until `seconds` of measuring have passed. Another unit starts
/// only if it is expected to end within half a unit of the budget, so a
/// unit longer than the budget runs exactly once.
template <typename Unit>
void measure(double seconds, std::size_t min_units, Unit&& unit) {
  const auto t0 = Clock::now();
  double last = 0.0;
  for (std::size_t n = 0;; ++n) {
    const double elapsed = seconds_between(t0, Clock::now());
    if (n >= min_units && elapsed + 0.5 * last > seconds) break;
    const auto u0 = Clock::now();
    unit(n);
    last = seconds_between(u0, Clock::now());
  }
}

/// One timed run: Network construction and run(), each in its own span,
/// optionally with a counting subscriber on the bus.
struct TimedRun {
  double build_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  RunResult result;
  phy::ChannelStats channel;
};

TimedRun timed_run(const ScenarioConfig& cfg, Spans& spans, int parent,
                   LayerTally* tally, std::unique_ptr<Network> prebuilt = {}) {
  TimedRun tr;
  std::unique_ptr<Network> net = std::move(prebuilt);
  if (!net) {
    ScopedSpan s(spans, "scenario.Network", parent);
    const auto t0 = Clock::now();
    net = std::make_unique<Network>(cfg);
    tr.build_s = seconds_between(t0, Clock::now());
  }
  if (tally != nullptr) tally->attach(net->telemetry());
  {
    ScopedSpan s(spans, "scenario.Network.run", parent);
    const double c0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    tr.result = net->run();
    tr.run_s = seconds_between(t0, Clock::now());
    tr.cpu_s = process_cpu_seconds() - c0;
  }
  tr.channel = net->channel().stats();
  return tr;
}

/// Adds `n` samples to `samples`, each the mean time of `batch` network
/// builds (every build timed alone, the previous network torn down outside
/// the timing, so one network is alive at a time). The last network is kept
/// for the next unit.
void setup_builds(const ScenarioConfig& cfg, std::size_t n, std::size_t batch,
                  Spans& spans, std::unique_ptr<Network>& keep,
                  std::vector<double>& samples) {
  for (std::size_t i = 0; i < n; ++i) {
    ScopedSpan s(spans, "setup.scenario.Network");
    double sum = 0.0;
    for (std::size_t b = 0; b < batch; ++b) {
      keep.reset();
      const auto t0 = Clock::now();
      keep = std::make_unique<Network>(cfg);
      sum += seconds_between(t0, Clock::now());
    }
    samples.push_back(sum / static_cast<double>(batch));
  }
}

/// Per-layer metrics every simulator workload derives from one run's
/// RunResult/PerfCounters and channel stats.
void perf_layers(Report& rep, const RunResult& r, const phy::ChannelStats& ch) {
  const sim::PerfCounters& p = r.perf;
  rep.layers["sim.events"] = static_cast<double>(r.events_executed);
  rep.layers["sim.batch_mean"] = ratio(static_cast<double>(p.inplace_fires),
                                       static_cast<double>(p.dispatch_batches));
  rep.layers["sim.queue_depth_hw"] =
      static_cast<double>(p.queue_depth_high_water);
  rep.layers["sim.pool_hit_ratio"] =
      ratio(static_cast<double>(p.pool_hits),
            static_cast<double>(p.pool_hits + p.pool_misses));
  rep.layers["sim.heap_bytes"] = static_cast<double>(p.bytes_allocated);
  rep.layers["geo.spatial_queries"] = static_cast<double>(p.spatial_queries);
  rep.layers["geo.candidates_per_query"] =
      ratio(static_cast<double>(p.spatial_candidates_scanned),
            static_cast<double>(p.spatial_queries));
  rep.layers["phy.cs_cells_visited"] = static_cast<double>(p.cs_cells_visited);
  rep.layers["phy.arrival_group_mean"] =
      ratio(static_cast<double>(ch.arrival_records),
            static_cast<double>(ch.arrival_groups));
  rep.layers["mobility.segment_refreshes"] =
      static_cast<double>(p.segment_refreshes);
  rep.layers["mac.overhear_commit_ratio"] =
      ratio(static_cast<double>(r.overhear_commits),
            static_cast<double>(r.overhear_commits + r.overhear_declines));
  rep.layers["mac.sleeps"] = static_cast<double>(r.mac_sleeps);
  rep.layers["mac.data_fail_ratio"] =
      ratio(static_cast<double>(r.data_tx_failed),
            static_cast<double>(r.data_tx_attempts));
  rep.layers["mac.atim_tx"] = static_cast<double>(r.atim_tx);
  rep.layers["routing.rreq_tx"] = static_cast<double>(r.rreq_tx);
  rep.layers["routing.rrep_tx"] = static_cast<double>(r.rrep_tx);
  rep.layers["routing.rerr_tx"] = static_cast<double>(r.rerr_tx);
  rep.layers["routing.pdr"] = r.pdr_percent / 100.0;
}

/// Per-layer metrics only a bus subscriber sees (single-queue runs; they
/// read 0 on shard_100k).
void tally_layers(Report& rep, const LayerTally& t) {
  rep.layers["phy.tx"] = static_cast<double>(t.phy_tx);
  rep.layers["phy.rx_ok"] = static_cast<double>(t.phy_rx_ok);
  for (stats::PhyLoss l : {stats::PhyLoss::kCollision, stats::PhyLoss::kWhileBusy,
                           stats::PhyLoss::kWhileAsleep, stats::PhyLoss::kWhileTx}) {
    rep.layers[std::string("phy.rx_lost.") + stats::to_string(l)] =
        static_cast<double>(t.phy_rx_lost[static_cast<std::size_t>(l)]);
  }
  rep.layers["phy.rx_waste_ratio"] =
      ratio(static_cast<double>(t.rx_lost_total()),
            static_cast<double>(t.rx_lost_total() + t.phy_rx_ok));
  rep.layers["energy.radio_transitions"] =
      static_cast<double>(t.radio_transitions);
  rep.layers["mac.atim_fail_ratio"] = ratio(static_cast<double>(t.atim_failed),
                                            static_cast<double>(t.atim_tx));
  rep.layers["mac.queue_drops"] = static_cast<double>(t.queue_drops);
  rep.layers["power.am_windows"] = static_cast<double>(t.am_windows);
  rep.layers["routing.forwarded"] = static_cast<double>(t.forwarded);
}

/// The subscriber's counts must agree with what the run summarized itself
/// (RunResult is built from the network's own LayerCounters subscriber).
void check_tally(Report& rep, const std::string& what, const LayerTally& t,
                 const RunResult& r, const phy::ChannelStats& ch) {
  using routing::PacketType;
  rep.check(t.atim_tx == r.atim_tx && t.mac_sleeps == r.mac_sleeps &&
                t.overhear_commits == r.overhear_commits &&
                t.overhear_declines == r.overhear_declines &&
                t.data_tx_attempts == r.data_tx_attempts &&
                t.data_tx_failed == r.data_tx_failed &&
                t.control(PacketType::kRreq) == r.rreq_tx &&
                t.control(PacketType::kRrep) == r.rrep_tx &&
                t.control(PacketType::kRerr) == r.rerr_tx &&
                t.phy_tx == ch.frames_transmitted,
            what + ": bus subscriber counts disagree with the RunResult");
}

// --------------------------------------------------------- paper_rcast --

ScenarioConfig paper_config(const Options& opt) {
  ScenarioConfig cfg;  // paper defaults: 100 nodes, 1500x300 m, 20 flows
  cfg.scheme = scenario::Scheme::kRcast;
  cfg.routing = scenario::RoutingProtocol::kDsr;
  cfg.rate_pps = 2.0;
  cfg.pause = 600 * sim::kSecond;
  cfg.seed = opt.sim_seed != 0 ? opt.sim_seed : 1;
  const int seconds = opt.full ? 1125 : opt.tiny ? 10 : 150;
  cfg.duration = seconds * sim::kSecond;
  return cfg;
}

/// The row results/full/paper_points.csv records for one run.
std::string paper_points_row(const RunResult& r, const ScenarioConfig& cfg) {
  std::uint64_t max_role = 0;
  for (std::uint64_t v : r.role_numbers) max_role = std::max(max_role, v);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s,%.1f,%.0f,%.1f,%.0f,%.0f,%.3f,%.3f,%.3f,%.2f,%llu,%llu",
                std::string(scenario::to_string(cfg.scheme)).c_str(),
                cfg.rate_pps, sim::to_seconds(cfg.pause), r.pdr_percent,
                r.total_energy_j, r.energy_variance, r.avg_delay_s,
                r.delay_p50_s, r.delay_p90_s, r.normalized_overhead,
                static_cast<unsigned long long>(max_role),
                static_cast<unsigned long long>(r.control_tx));
  return buf;
}

}  // namespace

void run_paper_rcast(const Options& opt, Report& rep, Spans& spans) {
  const ScenarioConfig cfg = paper_config(opt);
  const bool default_inputs = opt.sim_seed == 0 && !opt.tiny;

  // A 100-node build takes ~0.1 ms, so one build is a noisy sample: each
  // sample is the mean of 40 builds. The host's speed drifts over seconds,
  // so five samples are taken before every unit, not all before the first;
  // setup_s is the median of them all. (On the reference box the five
  // samples before one unit agree within a few percent, while those before
  // different units differ by up to 1.8x, as the units' own times do.)
  std::vector<double> setup;
  std::vector<double> run_s, traced_s;
  std::string digest;
  TimedRun kept;  // the last traced unit (traced runs) or the last unit
  LayerTally tally;
  measure(opt.full ? 0.0 : opt.seconds, opt.trace ? 2 : 1, [&](std::size_t n) {
    std::unique_ptr<Network> net;
    setup_builds(cfg, 5, 40, spans, net, setup);
    // Traced runs alternate untraced and traced units: the untraced ones
    // give the overhead baseline.
    const bool with_tally = opt.trace && n % 2 == 1;
    LayerTally t;
    ScopedSpan unit(spans, "unit");
    TimedRun tr = timed_run(cfg, spans, unit.id(), with_tally ? &t : nullptr,
                            std::move(net));
    const std::string d = result_digest(tr.result);
    rep.check(digest.empty() || d == digest,
              "paper_rcast: unit " + std::to_string(n) +
                  " digest differs from unit 0 (nondeterministic run)");
    if (digest.empty()) digest = d;
    if (with_tally) {
      check_tally(rep, "paper_rcast", t, tr.result, tr.channel);
      traced_s.push_back(tr.run_s);
      tally = t;
      kept = std::move(tr);
    } else {
      run_s.push_back(tr.run_s);
      if (!opt.trace) kept = std::move(tr);
    }
  });
  check_golden(opt, rep, opt.full ? "paper_rcast_full" : "paper_rcast", digest,
               default_inputs);

  if (opt.full) {
    const std::string row = paper_points_row(kept.result, cfg);
    rep.info["paper_points_row"] = row;
    const std::string csv = read_file(opt.root + "/results/full/paper_points.csv");
    rep.check(csv.find("\n" + row + "\n") != std::string::npos,
              "paper_rcast: full-length row '" + row +
                  "' not found in results/full/paper_points.csv");
  }

  const double setup_s = median(setup);
  const double wall = median(run_s);
  rep.e2e["setup_s"] = setup_s;
  rep.e2e["wall_s"] = wall;
  rep.info["units"] = join(run_s);
  rep.info["sim_events_per_s"] =
      std::to_string(static_cast<double>(kept.result.events_executed) / wall);
  std::vector<double> setup_ms;
  for (double x : setup) setup_ms.push_back(1e3 * x);
  rep.info["setup_ms"] = join(setup_ms);

  if (opt.trace) {
    perf_layers(rep, kept.result, kept.channel);
    tally_layers(rep, tally);
    rep.layers["scenario.build_s"] = setup_s;
    rep.layers["scenario.run_s"] = wall;
    rep.layers["sim.ns_per_event"] =
        1e9 * wall / static_cast<double>(kept.result.events_executed);
    rep.layers["sim.events_per_s"] =
        static_cast<double>(kept.result.events_executed) / wall;
    rep.layers["trace.overhead_ratio"] = median(traced_s) / wall;
  }
}

// ------------------------------------------------------------ shard_100k --

void run_shard_100k(const Options& opt, Report& rep, Spans& spans) {
  ScenarioConfig cfg;
  cfg.scheme = scenario::Scheme::kRcast;
  cfg.num_nodes = opt.tiny ? 4000 : 100000;
  // Paper density (450 m^2 per node) on a 5:1 strip: 15000 x 3000 m at 100k.
  const double h = std::sqrt(static_cast<double>(cfg.num_nodes) * 450.0 / 5.0);
  cfg.world = geo::Rect{5.0 * h, h};
  cfg.num_flows = cfg.num_nodes / 500;
  cfg.pause = 0;
  cfg.duration = opt.tiny ? sim::kSecond / 4 : 1 * sim::kSecond;
  cfg.seed = opt.sim_seed != 0 ? opt.sim_seed : 3;
  // Two shards, not four: every window ends at a barrier, so a run on all
  // four vCPUs stalls whenever the host steals any one of them. At K=4 the
  // wall time spread 0.32 over 10 runs on the reference box (steal 2-30 %),
  // beyond any allowed bound; K=2 keeps two vCPUs spare.
  cfg.sim_shards = 2;
  const bool default_inputs = opt.sim_seed == 0 && !opt.tiny;

  std::unique_ptr<Network> first;
  std::vector<double> setup;
  setup_builds(cfg, 3, 1, spans, first, setup);
  const double setup_s = median(setup);
  std::vector<std::uint32_t> counts(cfg.sim_shards, 0);
  for (std::uint32_t s : first->node_shards()) {
    if (s < counts.size()) ++counts[s];
  }
  double imbalance = 0.0;
  if (!first->node_shards().empty()) {
    const double mean = static_cast<double>(cfg.num_nodes) /
                        static_cast<double>(cfg.sim_shards);
    imbalance = *std::max_element(counts.begin(), counts.end()) / mean;
  }

  // No unit here differs between traced and untraced runs: the counts come
  // from the merged RunResult, which every run fills in. So every unit is
  // timed alike, and trace.overhead_ratio is not reported (reads 0).
  std::vector<double> run_s, cpu_s;
  std::string digest;
  TimedRun last;
  measure(opt.seconds, 1, [&](std::size_t n) {
    ScopedSpan unit(spans, "unit");
    TimedRun tr = timed_run(cfg, spans, unit.id(), nullptr, std::move(first));
    const std::string d = result_digest(tr.result);
    rep.check(digest.empty() || d == digest,
              "shard_100k: unit " + std::to_string(n) +
                  " digest differs from unit 0 (nondeterministic run)");
    if (digest.empty()) digest = d;
    run_s.push_back(tr.run_s);
    cpu_s.push_back(tr.cpu_s);
    last = std::move(tr);
  });
  check_golden(opt, rep, "shard_100k", digest, default_inputs);

  const double wall = median(run_s);
  rep.e2e["setup_s"] = setup_s;
  rep.e2e["wall_s"] = wall;
  rep.info["units"] = join(run_s);
  rep.info["sim_events_per_s"] =
      std::to_string(static_cast<double>(last.result.events_executed) / wall);

  if (opt.trace) {
    // External subscribers see nothing in sharded mode: every count comes
    // from the merged RunResult / PerfCounters / channel stats.
    perf_layers(rep, last.result, last.channel);
    rep.layers["phy.tx"] = static_cast<double>(last.channel.frames_transmitted);
    rep.layers["scenario.build_s"] = setup_s;
    rep.layers["scenario.run_s"] = wall;
    rep.layers["sim.ns_per_event"] =
        1e9 * wall / static_cast<double>(last.result.events_executed);
    rep.layers["sim.events_per_s"] =
        static_cast<double>(last.result.events_executed) / wall;
    rep.layers["sim.shard.cpu_util"] =
        ratio(median(cpu_s), wall * static_cast<double>(cfg.sim_shards));
    rep.layers["sim.shard.node_imbalance"] = imbalance;

    // Single-queue reference of the same scenario for the speedup.
    ScenarioConfig k1 = cfg;
    k1.sim_shards = 1;
    ScopedSpan ref(spans, "reference.k1");
    const TimedRun tr = timed_run(k1, spans, ref.id(), nullptr);
    rep.layers["sim.shard.speedup"] = tr.run_s / wall;
    rep.info["k1_wall_s"] = std::to_string(tr.run_s);
  }
}

// ---------------------------------------------------------- fig6_campaign --

namespace {

campaign::Manifest fig6_manifest(const Options& opt) {
  campaign::Manifest m;
  m.name = "fig6_e2e";
  m.schemes = {scenario::Scheme::k80211, scenario::Scheme::kOdpm,
               scenario::Scheme::kRcast};
  m.rates_pps = {0.4, 1.0, 2.0};
  m.duration_s = opt.tiny ? 10.0 : 150.0;
  // bench_fig6's reduced-scale panels: mobile (pause = duration / 2; a 600 s
  // pause would never move a node in 150 s) and static.
  m.pauses = {campaign::PauseSpec::fixed(m.duration_s / 2.0),
              campaign::PauseSpec::static_scenario()};
  m.node_counts = {opt.tiny ? std::size_t{20} : std::size_t{60}};
  m.seeds = opt.tiny ? 1 : 3;
  m.seed_base = opt.sim_seed != 0 ? opt.sim_seed : 1;
  return m;
}

struct CampaignUnit {
  double wall_s = 0.0;    // run_campaign + export
  double export_s = 0.0;
  std::string csv;
  std::uintmax_t store_bytes = 0;
  campaign::CampaignResult result;
};

constexpr std::size_t kCampaignThreads = 4;
// The grid's base config, named: GCC's -O3 flags a defaulted temporary
// ScenarioConfig argument with a spurious -Wmaybe-uninitialized.
const ScenarioConfig kBase;

CampaignUnit campaign_unit(const campaign::Manifest& m, const std::string& dir,
                           Spans& spans, int parent,
                           stats::LiveCounters* live) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  campaign::RunnerOptions ro;
  ro.threads = kCampaignThreads;
  ro.journal_path = dir + "/journal.log";
  ro.results_path = dir + "/results.jsonl";
  ro.live = live;
  CampaignUnit u;
  const auto t0 = Clock::now();
  {
    ScopedSpan s(spans, "campaign.run_campaign", parent);
    u.result = campaign::run_campaign(m, ro, kBase);
  }
  const auto t1 = Clock::now();
  {
    ScopedSpan s(spans, "campaign.export_aggregate_csv", parent);
    u.csv = campaign::export_aggregate_csv({ro.results_path});
  }
  const auto t2 = Clock::now();
  u.wall_s = seconds_between(t0, t2);
  u.export_s = seconds_between(t1, t2);
  std::ofstream(dir + "/export.csv", std::ios::binary) << u.csv;
  u.store_bytes = fs::file_size(ro.results_path);
  return u;
}

/// Seed-averaged energy variance of one scheme, summed over the rate sweep
/// of one pause panel (bench_fig6's shape statistic).
double scheme_variance(const campaign::CampaignResult& res,
                       const campaign::Manifest& m, scenario::Scheme s,
                       sim::Time pause) {
  double sum = 0.0;
  for (double rate : m.rates_pps) {
    sum += res.average_cell([&](const ScenarioConfig& c) {
                 return c.scheme == s && c.pause == pause && c.rate_pps == rate;
               }).energy_variance;
  }
  return sum;
}

}  // namespace

void run_fig6_campaign(const Options& opt, Report& rep, Spans& spans) {
  const campaign::Manifest m = fig6_manifest(opt);
  const bool default_inputs = opt.sim_seed == 0 && !opt.tiny;

  // Set-up: expand the grid and build every job's network once. A pass takes
  // ~7 ms and single passes vary by 2x, and the host's speed drifts over
  // seconds, so five passes run before every unit; the median pass is
  // setup_s.
  std::vector<double> setup;
  std::vector<campaign::Job> jobs;
  std::vector<double> walls, traced_walls;
  std::string csv;
  CampaignUnit last;
  std::optional<stats::LiveSnapshot> live_counts;
  measure(opt.seconds, opt.trace ? 2 : 1, [&](std::size_t n) {
    for (int pass = 0; pass < 5; ++pass) {
      ScopedSpan s(spans, "setup.expand_and_build");
      const auto t0 = Clock::now();
      jobs = campaign::expand(m, kBase);
      for (const campaign::Job& j : jobs) Network net(j.cfg);
      setup.push_back(seconds_between(t0, Clock::now()));
    }
    const bool traced = opt.trace && n % 2 == 1;
    ScopedSpan unit(spans, "unit");
    stats::LiveCounters live;
    CampaignUnit u = campaign_unit(m, opt.work_dir + "/fig6", spans, unit.id(),
                                   traced ? &live : nullptr);
    if (traced) live_counts = live.snapshot();
    rep.check(u.result.all_done() && u.result.completed == jobs.size(),
              "fig6_campaign: " + std::to_string(u.result.failed) +
                  " failed / " + std::to_string(u.result.remaining) +
                  " not run of " + std::to_string(jobs.size()) + " jobs");
    rep.check(csv.empty() || u.csv == csv,
              "fig6_campaign: unit " + std::to_string(n) +
                  " exported a different CSV (nondeterministic campaign)");
    if (csv.empty()) csv = u.csv;
    (traced ? traced_walls : walls).push_back(u.wall_s);
    if (!traced) last = std::move(u);
  });

  // Output checks: the CSV golden, and the paper's Fig. 6 shape.
  rep.info["fig6_campaign.digest"] = hex16(fnv1a(csv));
  if (default_inputs) {
    const std::string want = read_file(opt.root + "/perfbench/goldens/fig6_campaign.csv");
    rep.check(!want.empty() && want == csv,
              "fig6_campaign: exported CSV differs from goldens/fig6_campaign.csv");
  }
  for (const campaign::PauseSpec& p : m.pauses) {
    const sim::Time pause = sim::from_seconds(p.is_static ? m.duration_s : p.seconds);
    const auto var = [&](scenario::Scheme s) {
      return scheme_variance(last.result, m, s, pause);
    };
    rep.check(var(scenario::Scheme::kOdpm) > var(scenario::Scheme::kRcast),
              "fig6_campaign: ODPM variance not above RCAST");
    rep.check(var(scenario::Scheme::k80211) < 1e-6,
              "fig6_campaign: 802.11 variance is not zero");
  }

  const double wall = median(walls);
  rep.e2e["setup_s"] = median(setup);
  rep.e2e["wall_s"] = wall;
  rep.info["units"] = join(walls);
  rep.info["jobs"] = std::to_string(jobs.size());
  if (!opt.trace) return;

  // Campaign layer, from the last untraced unit.
  std::vector<double> job_s;
  double job_sum = 0.0;
  for (const campaign::JobOutcome& o : last.result.outcomes) {
    job_s.push_back(o.wall_ms / 1000.0);
    job_sum += o.wall_ms / 1000.0;
  }
  rep.layers["campaign.job_s.p50"] = median(job_s);
  rep.layers["campaign.job_s.max"] = *std::max_element(job_s.begin(), job_s.end());
  rep.layers["campaign.worker_util"] =
      job_sum / (last.wall_s * static_cast<double>(kCampaignThreads));
  rep.layers["campaign.export_s"] = last.export_s;
  rep.layers["campaign.store_bytes_per_job"] =
      static_cast<double>(last.store_bytes) / static_cast<double>(jobs.size());
  rep.layers["trace.overhead_ratio"] = median(traced_walls) / wall;

  // Per-layer counts need a subscriber on every job's bus, which the runner
  // does not expose: replay each job on the same thread count with a counting
  // subscriber. The replay must reproduce every campaign result exactly, and
  // its totals must match the campaign's own live counters.
  ScopedSpan replay_span(spans, "replay");
  std::vector<TimedRun> runs(jobs.size());
  std::vector<LayerTally> tallies(jobs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kCampaignThreads; ++w) {
    workers.emplace_back([&] {
      Spans none(false);
      for (std::size_t i = next++; i < jobs.size(); i = next++) {
        runs[i] = timed_run(jobs[i].cfg, none, -1, &tallies[i]);
      }
    });
  }
  for (std::thread& t : workers) t.join();

  LayerTally total;
  RunResult sum;
  phy::ChannelStats ch;
  double run_sum = 0.0, build_sum = 0.0;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const RunResult& r = runs[i].result;
    if (result_digest(r) != result_digest(last.result.outcomes[i].result)) {
      ++mismatched;
    }
    check_tally(rep, "fig6_campaign replay " + jobs[i].id, tallies[i], r,
                runs[i].channel);
    total.add(tallies[i]);
    run_sum += runs[i].run_s;
    build_sum += runs[i].build_s;
    ch.arrival_groups += runs[i].channel.arrival_groups;
    ch.arrival_records += runs[i].channel.arrival_records;
    sum.events_executed += r.events_executed;
    sum.overhear_commits += r.overhear_commits;
    sum.overhear_declines += r.overhear_declines;
    sum.mac_sleeps += r.mac_sleeps;
    sum.data_tx_failed += r.data_tx_failed;
    sum.data_tx_attempts += r.data_tx_attempts;
    sum.atim_tx += r.atim_tx;
    sum.rreq_tx += r.rreq_tx;
    sum.rrep_tx += r.rrep_tx;
    sum.rerr_tx += r.rerr_tx;
    sum.originated += r.originated;
    sum.delivered += r.delivered;
    sim::PerfCounters& p = sum.perf;
    p.inplace_fires += r.perf.inplace_fires;
    p.dispatch_batches += r.perf.dispatch_batches;
    p.queue_depth_high_water =
        std::max(p.queue_depth_high_water, r.perf.queue_depth_high_water);
    p.pool_hits += r.perf.pool_hits;
    p.pool_misses += r.perf.pool_misses;
    p.bytes_allocated += r.perf.bytes_allocated;
    p.spatial_queries += r.perf.spatial_queries;
    p.spatial_candidates_scanned += r.perf.spatial_candidates_scanned;
    p.cs_cells_visited += r.perf.cs_cells_visited;
    p.segment_refreshes += r.perf.segment_refreshes;
  }
  rep.check(mismatched == 0, "fig6_campaign: " + std::to_string(mismatched) +
                                 " replayed jobs differ from the campaign");
  const stats::LiveSnapshot ls = live_counts.value_or(stats::LiveSnapshot{});
  rep.check(ls.phy_tx == total.phy_tx && ls.phy_rx_ok == total.phy_rx_ok &&
                ls.atim_tx == total.atim_tx && ls.mac_sleeps == total.mac_sleeps,
            "fig6_campaign: replay counts differ from the campaign's live counters");
  sum.pdr_percent = 100.0 * ratio(static_cast<double>(sum.delivered),
                                  static_cast<double>(sum.originated));
  perf_layers(rep, sum, ch);
  tally_layers(rep, total);
  rep.layers["scenario.build_s"] = build_sum;
  rep.layers["scenario.run_s"] = run_sum;
  rep.layers["sim.ns_per_event"] =
      1e9 * run_sum / static_cast<double>(sum.events_executed);
  rep.layers["sim.events_per_s"] =
      static_cast<double>(sum.events_executed) / wall;
}

}  // namespace rcast::perfbench
