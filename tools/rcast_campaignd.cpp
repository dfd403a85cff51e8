// rcast_campaignd — declarative sweep campaigns over the simulator.
//
// A campaign is a manifest (parameter grid) plus an output directory of
// crash-safe shard journals and JSONL result stores. The daemon supervises
// a fleet of worker *processes* (one per shard of the grid; one by
// default), can serve the growing result store over HTTP while the fleet
// runs, and keeps the byte-identity guarantee: interrupt a run any way you
// like — Ctrl-C, kill -9 of a worker or of the daemon, power loss — and
// `resume` continues where it stopped; the merged export matches what the
// campaign library produces from one uninterrupted single-queue run
// (campaign::run_campaign + campaign::export_aggregate_csv), whatever the
// shard count.
//
//   rcast_campaignd run     MANIFEST --out=DIR [--shards=N] [--port=P]
//                           [--trace=FILE [--trace-job=ID]]
//   rcast_campaignd resume  MANIFEST --out=DIR [same knobs]
//   rcast_campaignd serve   MANIFEST --out=DIR --port=P
//   rcast_campaignd export  MANIFEST --out=DIR [--csv=FILE]
//   rcast_campaignd status  MANIFEST --out=DIR
//   rcast_campaignd reindex MANIFEST --out=DIR
//   rcast_campaignd worker  MANIFEST --out=DIR --shards=N --shard=K  (internal)
//
// Layout under DIR: journal.shard<k>.log, results.shard<k>.jsonl (+ .idx
// sidecar), metrics.shard<k>.json. Workers are resumable idempotent units:
// the supervisor re-execs any worker that dies to a signal and the journal
// resume path absorbs the loss. Endpoints: /status (fleet + journal +
// cache view), /results?digest=<16hex> (point lookup via the index),
// /aggregate?cell=<16hex> (memoized seed-average), /aggregate (full CSV,
// optionally filtered by the grid coordinates the index records carry:
// ?scheme=rcast&routing=dsr&mobility.model=rpgm&traffic.pattern=sensing
// &nodes=60&flows=8&rate_pps=4&pause_s=30&duration_s=900&seed=3),
// /metrics (chunked live counter stream merged across shards).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/json.hpp"
#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "campaign/runner.hpp"
#include "scenario/params.hpp"
#include "scenario/policy_registry.hpp"
#include "scenario/scheme.hpp"
#include "serving/http_server.hpp"
#include "serving/metrics_io.hpp"
#include "serving/result_index.hpp"
#include "serving/result_service.hpp"
#include "serving/shard_supervisor.hpp"
#include "stats/live_counters.hpp"
#include "util/flags.hpp"

namespace {

using namespace rcast;
namespace fs = std::filesystem;

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

void print_usage() {
  std::puts(
      "rcast_campaignd — campaign-as-a-service daemon (Rcast reproduction)\n"
      "\n"
      "  rcast_campaignd run     MANIFEST --out=DIR   shard + supervise a "
      "campaign\n"
      "  rcast_campaignd resume  MANIFEST --out=DIR   continue after any "
      "interruption\n"
      "  rcast_campaignd serve   MANIFEST --out=DIR   HTTP serving of an "
      "existing store\n"
      "  rcast_campaignd export  MANIFEST --out=DIR   merged aggregate CSV "
      "(all shards)\n"
      "  rcast_campaignd status  MANIFEST --out=DIR   per-shard journal "
      "progress\n"
      "  rcast_campaignd reindex MANIFEST --out=DIR   rebuild index sidecars "
      "from JSONL\n"
      "\n"
      "  --out=DIR        campaign directory (journal/results/metrics per "
      "shard)\n"
      "  --shards=N       worker processes        (default: 1)\n"
      "  --port=P         serve HTTP on 127.0.0.1:P (0 = ephemeral; run/serve)\n"
      "  --port-file=F    write the bound port to F (useful with --port=0)\n"
      "  --serve-after    keep serving after the fleet finishes (run mode)\n"
      "  --threads=N      sim threads per worker  (default: hardware)\n"
      "  --http-threads=N HTTP connection workers (default: 4)\n"
      "  --timeout-s=S    per-job wall budget     (default: none)\n"
      "  --max-jobs=N     per-worker new-job cutoff (interruption testing)\n"
      "  --max-respawns=N signal deaths tolerated per worker (default: 5)\n"
      "  --csv=FILE       export target           (default: stdout)\n"
      "  --trace=FILE     attach a routing+MAC event trace to one job\n"
      "  --trace-job=ID   job id to trace (default: shard 0's first pending)\n"
      "  --set KEY=VALUE  override any registered scenario parameter in the\n"
      "                   base config (repeatable; affects job digests, so\n"
      "                   pass the same --set flags to every subcommand)\n"
      "  --help-params    list every registered parameter\n"
      "  --quiet          suppress worker progress lines\n"
      "\n"
      "Manifest keys: name, schemes, routings, rates_pps, pauses_s (numbers\n"
      "or 'static'), nodes, seeds, seed_base, duration_s, flows,\n"
      "payload_bytes, speed_mps, battery_j, world_m (WxH) — plus any\n"
      "registered parameter: one value overrides every job, a comma-separated\n"
      "list adds a sweep axis.\n"
      "\n"
      "HTTP endpoints: /status, /results?digest=<16hex>,\n"
      "/aggregate?cell=<16hex>, /aggregate (CSV), /metrics[?watch=N].\n"
      "Workers are idempotent resumable units: kill -9 any of them (or the\n"
      "whole daemon) and `resume` — the merged export stays byte-identical.");
}

// ---------------------------------------------------------------- layout --

std::string journal_path(const std::string& out_dir, std::size_t k) {
  return out_dir + "/journal.shard" + std::to_string(k) + ".log";
}
std::string results_path(const std::string& out_dir, std::size_t k) {
  return out_dir + "/results.shard" + std::to_string(k) + ".jsonl";
}
std::string metrics_path(const std::string& out_dir, std::size_t k) {
  return out_dir + "/metrics.shard" + std::to_string(k) + ".json";
}

/// Result files of a campaign directory, in shard order (later files win
/// job-index collisions). With `shards` > 0 the set is exactly 0..N-1
/// (missing files are created empty so the service can open them);
/// otherwise it is every shard file present, up to the first gap.
std::vector<std::string> discover_results(const std::string& out_dir,
                                          std::size_t shards) {
  std::vector<std::string> paths;
  for (std::size_t k = 0; shards == 0 || k < shards; ++k) {
    const std::string p = results_path(out_dir, k);
    if (!fs::exists(p)) {
      if (shards == 0) break;
      std::ofstream(p, std::ios::app);
    }
    paths.push_back(p);
  }
  return paths;
}

/// Shard journals present in a campaign directory (shard index, path), up
/// to the first gap.
std::vector<std::pair<std::size_t, std::string>> discover_journals(
    const std::string& out_dir) {
  std::vector<std::pair<std::size_t, std::string>> out;
  for (std::size_t k = 0;; ++k) {
    const std::string p = journal_path(out_dir, k);
    if (!fs::exists(p)) break;
    out.emplace_back(k, p);
  }
  return out;
}

/// Journal progress of one shard.
struct ShardTally {
  std::size_t shard = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::vector<std::pair<std::size_t, std::string>> failures;  // (job, error)
  std::string error;     // why the journal was not counted, if it wasn't
  bool foreign = false;  // the journal belongs to a different campaign
};

struct JournalTally {
  std::vector<ShardTally> shards;
  std::size_t ok = 0;
  std::size_t failed = 0;
  bool foreign = false;  // some shard journal belongs to another campaign
};

/// Reads every shard journal of `out_dir` read-only and counts its commits.
/// A journal counts only if its header pins this campaign (digest and job
/// count): one written for another manifest or other --set flags would put
/// its failures on the wrong job ids, so it is flagged instead. A journal
/// without a header yet (a worker that just started) is reported, not
/// counted.
JournalTally tally_journals(const std::string& out_dir,
                            const std::string& campaign_digest,
                            std::size_t job_count) {
  JournalTally t;
  for (const auto& [k, path] : discover_journals(out_dir)) {
    ShardTally& s = t.shards.emplace_back();
    s.shard = k;
    try {
      const campaign::JournalView v = campaign::Journal::load(path);
      if (v.campaign_digest != campaign_digest || v.job_count != job_count) {
        s.foreign = t.foreign = true;
        s.error = path + ": journal belongs to a different campaign (digest " +
                  v.campaign_digest + ", expected " + campaign_digest + ")";
        continue;
      }
      for (const auto& [idx, e] : v.entries) {
        (e.ok ? s.ok : s.failed) += 1;
        if (!e.ok) s.failures.emplace_back(idx, e.error);
      }
    } catch (const std::exception& e) {
      s.error = e.what();
    }
    t.ok += s.ok;
    t.failed += s.failed;
  }
  return t;
}

// ------------------------------------------------------------ HTTP layer --

struct ServeContext {
  serving::ResultService* svc = nullptr;
  serving::ShardSupervisor* sup = nullptr;  // null in pure serve mode
  std::string out_dir;
  std::string campaign_name;
  std::string campaign_digest;
  std::size_t job_count = 0;
  std::size_t shards = 1;

  std::mutex refresh_mu;
  std::chrono::steady_clock::time_point last_refresh{};

  /// Refresh at most every 200 ms: point queries against a static store
  /// stay cheap, yet a store growing under the daemon is visible promptly.
  void maybe_refresh() {
    std::lock_guard<std::mutex> lock(refresh_mu);
    const auto now = std::chrono::steady_clock::now();
    if (now - last_refresh < std::chrono::milliseconds(200)) return;
    last_refresh = now;
    svc->refresh();
  }

  /// Unthrottled refresh for lookup misses: a record committed microseconds
  /// ago should be queryable on the retry.
  void force_refresh() {
    std::lock_guard<std::mutex> lock(refresh_mu);
    last_refresh = std::chrono::steady_clock::now();
    svc->refresh();
  }

  stats::LiveSnapshot merged_metrics() const {
    stats::LiveSnapshot total;
    for (std::size_t k = 0; k < shards; ++k) {
      if (auto s = serving::read_snapshot_file(metrics_path(out_dir, k))) {
        total += *s;
      }
    }
    return total;
  }
};

serving::HttpResponse error_response(int status, const std::string& message) {
  campaign::json::Writer w;
  w.begin_object().key("error").value(message).end_object();
  serving::HttpResponse resp;
  resp.status = status;
  resp.body = w.take();
  return resp;
}

std::string status_json(ServeContext& ctx) {
  campaign::json::Writer w;
  w.begin_object();
  w.key("campaign").value(ctx.campaign_name);
  w.key("jobs").value(static_cast<std::uint64_t>(ctx.job_count));
  w.key("records").value(static_cast<std::uint64_t>(ctx.svc->record_count()));
  const JournalTally t =
      tally_journals(ctx.out_dir, ctx.campaign_digest, ctx.job_count);
  w.key("shards").begin_array();
  for (const ShardTally& s : t.shards) {
    w.begin_object();
    w.key("shard").value(static_cast<std::uint64_t>(s.shard));
    w.key("done").value(static_cast<std::uint64_t>(s.ok + s.failed));
    w.key("ok").value(static_cast<std::uint64_t>(s.ok));
    w.key("failed").value(static_cast<std::uint64_t>(s.failed));
    if (s.foreign) w.key("mismatch").value(true);
    w.end_object();
  }
  w.end_array();
  w.key("done").value(static_cast<std::uint64_t>(t.ok + t.failed));
  w.key("ok").value(static_cast<std::uint64_t>(t.ok));
  w.key("failed").value(static_cast<std::uint64_t>(t.failed));
  if (ctx.sup != nullptr) {
    w.key("workers").begin_array();
    for (const serving::WorkerStatus& ws : ctx.sup->status()) {
      w.begin_object();
      w.key("pid").value(static_cast<std::int64_t>(ws.pid));
      w.key("running").value(ws.running);
      w.key("respawns").value(static_cast<std::int64_t>(ws.respawns));
      w.key("exit_code").value(static_cast<std::int64_t>(ws.exit_code));
      w.key("gave_up").value(ws.gave_up);
      w.end_object();
    }
    w.end_array();
  }
  const serving::CacheStats cs = ctx.svc->cache_stats();
  w.key("cache").begin_object();
  w.key("hits").value(cs.hits);
  w.key("misses").value(cs.misses);
  w.key("invalidations").value(cs.invalidations);
  w.end_object();
  w.end_object();
  return w.take();
}

/// Renders one aggregate row as JSON, mirroring the CSV columns.
std::string aggregate_row_json(const campaign::AggregateRow& row) {
  const auto& m = row.mean;
  campaign::json::Writer w;
  w.begin_object();
  w.key("cell").value(row.cell);
  w.key("scheme").value(scenario::scheme_name(row.scheme));
  w.key("routing").value(scenario::to_string(row.routing));
  w.key("mobility").value(row.mobility);
  w.key("traffic").value(row.traffic);
  w.key("nodes").value(static_cast<std::uint64_t>(row.nodes));
  w.key("flows").value(static_cast<std::uint64_t>(row.flows));
  w.key("rate_pps").value(row.rate_pps);
  w.key("pause_s").value(row.pause_s);
  w.key("duration_s").value(row.duration_s);
  w.key("seeds").value(static_cast<std::uint64_t>(row.seeds));
  w.key("pdr_pct").value(m.pdr_percent);
  w.key("energy_j").value(m.total_energy_j);
  w.key("energy_var").value(m.energy_variance);
  w.key("energy_mean_j").value(m.energy_mean_j);
  w.key("epb_j_per_bit").value(m.energy_per_bit_j);
  w.key("delay_s").value(m.avg_delay_s);
  w.key("norm_overhead").value(m.normalized_overhead);
  w.key("ctrl_tx").value(m.control_tx);
  w.key("hello_tx").value(m.hello_tx);
  w.key("dead_nodes").value(static_cast<std::uint64_t>(m.dead_nodes));
  w.key("first_node_death_s").value(m.first_death_s);
  w.key("partition_time_s").value(m.partition_time_s);
  w.end_object();
  return w.take();
}

/// Parses a ?digest=/-?cell= query value; nullopt on malformed input.
std::optional<std::uint64_t> parse_digest_param(const std::string& hex) {
  try {
    return serving::digest_to_u64(hex);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// Builds the /aggregate grid filter from query parameters. Returns the
/// filter, or an error message naming the offending parameter.
std::variant<serving::AggregateFilter, std::string> parse_aggregate_filter(
    const std::map<std::string, std::string>& query) {
  serving::AggregateFilter f;
  for (const auto& [key, value] : query) {
    if (key == "scheme") {
      const auto s = scenario::scheme_from_string(value);
      if (!s) return "unknown scheme: " + value;
      f.scheme = static_cast<std::uint8_t>(*s);
    } else if (key == "routing") {
      const auto r = scenario::routing_from_string(value);
      if (!r) return "unknown routing: " + value;
      f.routing = static_cast<std::uint8_t>(*r);
    } else if (key == "mobility.model") {
      try {
        f.mobility = static_cast<std::uint8_t>(
            scenario::mobility_models().index_of(value));
      } catch (const scenario::RegistryError& e) {
        return std::string(e.what());
      }
    } else if (key == "traffic.pattern") {
      try {
        f.traffic = static_cast<std::uint8_t>(
            scenario::traffic_patterns().index_of(value));
      } catch (const scenario::RegistryError& e) {
        return std::string(e.what());
      }
    } else if (key == "nodes" || key == "flows" || key == "seed") {
      const auto v = Flags::parse_u64(value);
      if (!v) return "malformed " + key + ": " + value;
      if (key == "nodes") f.nodes = static_cast<std::uint32_t>(*v);
      else if (key == "flows") f.flows = static_cast<std::uint32_t>(*v);
      else f.seed = *v;
    } else if (key == "rate_pps" || key == "pause_s" || key == "duration_s") {
      const auto v = Flags::parse_double(value);
      if (!v) return "malformed " + key + ": " + value;
      if (key == "rate_pps") f.rate_pps = *v;
      else if (key == "pause_s") f.pause_s = *v;
      else f.duration_s = *v;
    } else {
      return "unknown aggregate parameter: " + key;
    }
  }
  return f;
}

serving::HttpServer::Handler make_handler(std::shared_ptr<ServeContext> ctx) {
  return [ctx](const serving::HttpRequest& req) -> serving::HttpResponse {
    if (req.path == "/status") {
      ctx->maybe_refresh();
      serving::HttpResponse resp;
      resp.body = status_json(*ctx);
      return resp;
    }

    if (req.path == "/results") {
      const auto it = req.query.find("digest");
      if (it == req.query.end()) {
        return error_response(400, "missing ?digest=<16 hex digits>");
      }
      const auto digest = parse_digest_param(it->second);
      if (!digest) return error_response(400, "malformed digest");
      ctx->maybe_refresh();
      auto line = ctx->svc->result_json(*digest);
      if (!line) {  // maybe committed since the last refresh — retry once
        ctx->force_refresh();
        line = ctx->svc->result_json(*digest);
      }
      if (!line) return error_response(404, "unknown digest");
      serving::HttpResponse resp;
      resp.body = std::move(*line);
      return resp;
    }

    if (req.path == "/aggregate") {
      const auto it = req.query.find("cell");
      ctx->maybe_refresh();
      if (it == req.query.end()) {
        const auto parsed = parse_aggregate_filter(req.query);
        if (const auto* err = std::get_if<std::string>(&parsed)) {
          return error_response(400, *err);
        }
        serving::HttpResponse resp;
        resp.content_type = "text/csv";
        resp.body =
            ctx->svc->aggregate_csv(std::get<serving::AggregateFilter>(parsed));
        return resp;
      }
      if (req.query.size() > 1) {
        return error_response(400, "cell= cannot combine with grid filters");
      }
      const auto cell = parse_digest_param(it->second);
      if (!cell) return error_response(400, "malformed cell digest");
      auto row = ctx->svc->aggregate_cell(*cell);
      if (!row) {
        ctx->force_refresh();
        row = ctx->svc->aggregate_cell(*cell);
      }
      if (!row) return error_response(404, "unknown cell");
      serving::HttpResponse resp;
      resp.body = aggregate_row_json(*row);
      return resp;
    }

    if (req.path == "/metrics") {
      std::uint64_t watch = 1;
      std::uint64_t interval_ms = 1000;
      if (const auto it = req.query.find("watch"); it != req.query.end()) {
        watch = Flags::parse_u64(it->second).value_or(1);
      }
      if (const auto it = req.query.find("interval-ms");
          it != req.query.end()) {
        interval_ms = Flags::parse_u64(it->second).value_or(1000);
      }
      serving::HttpResponse resp;
      resp.content_type = "application/x-ndjson";
      // state: (chunks remaining, is-first-chunk)
      auto state = std::make_shared<std::pair<std::uint64_t, bool>>(
          watch, /*first=*/true);
      resp.next_chunk = [ctx, state, interval_ms](std::string& chunk) {
        if (state->first == 0 || g_stop) return false;
        if (state->second) {
          state->second = false;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
          if (g_stop) return false;
        }
        --state->first;
        chunk = serving::snapshot_to_json(ctx->merged_metrics());
        chunk += '\n';
        return true;
      };
      return resp;
    }

    return error_response(404, "no such endpoint");
  };
}

// ------------------------------------------------------------ subcommands --

int cmd_worker(const campaign::Manifest& manifest,
               const scenario::ScenarioConfig& base,
               const std::string& out_dir, const Flags& flags) {
  const std::size_t shards =
      static_cast<std::size_t>(flags.get_int("shards", 1));
  const std::size_t shard = static_cast<std::size_t>(flags.get_int("shard", 0));

  campaign::RunnerOptions opt;
  opt.journal_path = journal_path(out_dir, shard);
  opt.results_path = results_path(out_dir, shard);
  opt.threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  opt.job_timeout_s = flags.get_double("timeout-s", 0.0);
  opt.max_jobs = static_cast<std::size_t>(flags.get_int("max-jobs", 0));
  opt.progress = !flags.get_bool("quiet", false);
  opt.trace_path = flags.get_string("trace", "");
  opt.trace_job = flags.get_string("trace-job", "");
  opt.shards = shards;
  opt.shard = shard;

  stats::LiveCounters live;
  opt.live = &live;

  // Incremental index maintenance + metrics publication, both hanging off
  // the commit hook. The index opens before any job runs, so open() covers
  // records a previous incarnation of this shard wrote before being killed
  // even when nothing is left to run; a failed open is retried on the first
  // commit.
  const std::string metrics = metrics_path(out_dir, shard);
  std::optional<serving::ResultIndex> index;
  try {
    index = serving::ResultIndex::open(opt.results_path);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "shard %zu: index open failed: %s\n", shard,
                 ex.what());
  }
  opt.on_commit = [&](const campaign::Job& job,
                      const campaign::JobOutcome& outcome,
                      const campaign::AppendExtent* extent) {
    if (extent != nullptr &&
        outcome.status == campaign::JobStatus::kOk) {
      try {
        if (!index) index = serving::ResultIndex::open(opt.results_path);
        if (extent->offset >= index->indexed_bytes()) {
          index->append(serving::make_index_entry(
              job.index, job.digest, campaign::config_cell_digest(job.cfg),
              job.cfg, *extent));
        }
      } catch (const std::exception& ex) {
        // The sidecar is a cache: serving rebuilds it on demand, so index
        // trouble must never fail a committed job.
        std::fprintf(stderr, "shard %zu: index append failed: %s\n", shard,
                     ex.what());
        index.reset();
      }
    }
    serving::write_snapshot_file(metrics, live.snapshot());
  };

  const campaign::CampaignResult r =
      campaign::run_campaign(manifest, opt, base);
  std::fprintf(stderr,
               "shard %zu/%zu: %zu ok, %zu failed, %zu resumed, %zu not run\n",
               shard, shards, r.completed, r.failed, r.skipped, r.remaining);
  return r.failed > 0 ? 1 : 0;
}

/// Serve loop shared by `serve` and `run --serve-after`: blocks until
/// SIGINT/SIGTERM.
void serve_until_signalled() {
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

void write_port_file(const Flags& flags, std::uint16_t port) {
  const std::string path = flags.get_string("port-file", "");
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  out << port << '\n';
}

int cmd_run(const campaign::Manifest& manifest,
            const scenario::ScenarioConfig& base,
            const std::string& manifest_path, const std::string& out_dir,
            const Flags& flags, bool resume) {
  const std::size_t shards = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.get_int("shards", 1)));
  const auto jobs = campaign::expand(manifest, base);  // validate early

  // The trace goes to exactly one worker, the one owning the traced job
  // (shard 0, which traces its first pending job, when no id is given), so
  // no two processes ever open the trace file.
  const std::string trace = flags.get_string("trace", "");
  const std::string trace_job = flags.get_string("trace-job", "");
  std::size_t trace_shard = 0;
  if (!trace_job.empty()) {
    if (trace.empty()) {
      std::fprintf(stderr, "--trace-job requires --trace=FILE\n");
      return 2;
    }
    const auto it = std::find_if(
        jobs.begin(), jobs.end(),
        [&](const campaign::Job& j) { return j.id == trace_job; });
    if (it == jobs.end()) {
      std::fprintf(stderr, "--trace-job: no job '%s' in the manifest\n",
                   trace_job.c_str());
      return 2;
    }
    trace_shard = it->index % shards;
  }

  if (!resume) {
    for (std::size_t k = 0; k < shards; ++k) {
      if (fs::exists(journal_path(out_dir, k))) {
        std::fprintf(stderr,
                     "%s already has shard journals — use `resume`\n",
                     out_dir.c_str());
        return 2;
      }
    }
  }
  fs::create_directories(out_dir);

  // Worker argvs: this binary re-execs itself as `worker` per shard.
  std::vector<std::vector<std::string>> argvs;
  for (std::size_t k = 0; k < shards; ++k) {
    std::vector<std::string> argv = {
        "/proc/self/exe",
        "worker",
        manifest_path,
        "--out=" + out_dir,
        "--shards=" + std::to_string(shards),
        "--shard=" + std::to_string(k),
    };
    if (flags.has("threads")) {
      argv.push_back("--threads=" +
                     std::to_string(flags.get_int("threads", 0)));
    }
    if (flags.has("timeout-s")) {
      argv.push_back("--timeout-s=" +
                     std::to_string(flags.get_double("timeout-s", 0.0)));
    }
    if (flags.has("max-jobs")) {
      argv.push_back("--max-jobs=" +
                     std::to_string(flags.get_int("max-jobs", 0)));
    }
    if (flags.get_bool("quiet", false)) argv.push_back("--quiet");
    if (!trace.empty() && k == trace_shard) {
      argv.push_back("--trace=" + trace);
      if (!trace_job.empty()) argv.push_back("--trace-job=" + trace_job);
    }
    for (const std::string& kv : flags.get_all("set")) {
      argv.push_back("--set=" + kv);
    }
    argvs.push_back(std::move(argv));
  }

  // Optional serving layer over the store the fleet is writing. Its index
  // open (which may repair a sidecar) finishes before any worker starts, so
  // every sidecar has one writer at a time; the daemon only reads afterwards.
  std::unique_ptr<serving::ResultService> svc;
  if (flags.has("port")) {
    svc = std::make_unique<serving::ResultService>(
        discover_results(out_dir, shards));
  }
  serving::ShardSupervisor sup(
      static_cast<int>(flags.get_int("max-respawns", 5)));
  sup.start(argvs);

  std::unique_ptr<serving::HttpServer> server;
  std::shared_ptr<ServeContext> ctx;
  if (svc) {
    ctx = std::make_shared<ServeContext>();
    ctx->svc = svc.get();
    ctx->sup = &sup;
    ctx->out_dir = out_dir;
    ctx->campaign_name = manifest.name;
    ctx->campaign_digest = campaign::campaign_digest(manifest.name, jobs);
    ctx->job_count = jobs.size();
    ctx->shards = shards;
    server = std::make_unique<serving::HttpServer>(
        static_cast<std::uint16_t>(flags.get_int("port", 0)),
        make_handler(ctx),
        static_cast<std::size_t>(flags.get_int("http-threads", 4)));
    std::fprintf(stderr, "serving on 127.0.0.1:%u\n", server->port());
    write_port_file(flags, server->port());
  }

  const bool all_ok = sup.wait_all();

  const JournalTally t = tally_journals(
      out_dir, campaign::campaign_digest(manifest.name, jobs), jobs.size());
  for (const ShardTally& s : t.shards) {
    if (s.foreign) std::fprintf(stderr, "%s\n", s.error.c_str());
  }
  std::fprintf(stderr,
               "campaign '%s': %zu/%zu jobs done (%zu ok, %zu failed) across "
               "%zu shard%s\n",
               manifest.name.c_str(), t.ok + t.failed, jobs.size(), t.ok,
               t.failed, shards, shards == 1 ? "" : "s");

  if (server && flags.get_bool("serve-after", false)) {
    std::fprintf(stderr, "fleet done — still serving (Ctrl-C to stop)\n");
    serve_until_signalled();
  }
  if (server) server->stop();
  return all_ok && t.failed == 0 && !t.foreign ? 0 : 1;
}

int cmd_serve(const campaign::Manifest& manifest,
              const scenario::ScenarioConfig& base, const std::string& out_dir,
              const Flags& flags) {
  const auto jobs = campaign::expand(manifest, base);
  const std::size_t shards =
      static_cast<std::size_t>(flags.get_int("shards", 0));
  const auto paths = discover_results(out_dir, shards);
  if (paths.empty()) {
    std::fprintf(stderr, "no result files under %s\n", out_dir.c_str());
    return 2;
  }

  serving::ResultService svc(paths);
  auto ctx = std::make_shared<ServeContext>();
  ctx->svc = &svc;
  ctx->out_dir = out_dir;
  ctx->campaign_name = manifest.name;
  ctx->campaign_digest = campaign::campaign_digest(manifest.name, jobs);
  ctx->job_count = jobs.size();
  ctx->shards = shards > 0 ? shards : paths.size();

  serving::HttpServer server(
      static_cast<std::uint16_t>(flags.get_int("port", 0)), make_handler(ctx),
      static_cast<std::size_t>(flags.get_int("http-threads", 4)));
  std::fprintf(stderr, "serving %zu records on 127.0.0.1:%u\n",
               svc.record_count(), server.port());
  write_port_file(flags, server.port());
  serve_until_signalled();
  server.stop();
  return 0;
}

int cmd_export(const std::string& out_dir, const Flags& flags) {
  const auto paths = discover_results(
      out_dir, static_cast<std::size_t>(flags.get_int("shards", 0)));
  if (paths.empty()) {
    std::fprintf(stderr, "no result files under %s\n", out_dir.c_str());
    return 2;
  }
  const std::string csv = campaign::export_aggregate_csv(paths);

  const std::string csv_path = flags.get_string("csv", "");
  if (csv_path.empty()) {
    std::fputs(csv.c_str(), stdout);
  } else {
    std::ofstream out(csv_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
      return 1;
    }
    out << csv;
    std::fprintf(stderr, "exported %zu file(s) -> %s\n", paths.size(),
                 csv_path.c_str());
  }
  return 0;
}

int cmd_status(const campaign::Manifest& manifest,
               const scenario::ScenarioConfig& base,
               const std::string& out_dir) {
  const auto jobs = campaign::expand(manifest, base);
  const JournalTally t = tally_journals(
      out_dir, campaign::campaign_digest(manifest.name, jobs), jobs.size());
  std::printf("campaign '%s': %zu jobs, %zu shard journal(s)\n",
              manifest.name.c_str(), jobs.size(), t.shards.size());
  for (const ShardTally& s : t.shards) {
    if (!s.error.empty()) {
      std::printf("  shard %zu: %s\n", s.shard, s.error.c_str());
      continue;
    }
    for (const auto& [idx, error] : s.failures) {
      std::printf("  FAILED %s: %s\n", jobs[idx].id.c_str(), error.c_str());
    }
    std::printf("  shard %zu: %zu done (%zu ok, %zu failed)\n", s.shard,
                s.ok + s.failed, s.ok, s.failed);
  }
  std::printf("total: %zu/%zu done (%zu ok, %zu failed)\n", t.ok + t.failed,
              jobs.size(), t.ok, t.failed);
  return t.foreign ? 1 : 0;
}

int cmd_reindex(const std::string& out_dir, const Flags& flags) {
  const auto paths = discover_results(
      out_dir, static_cast<std::size_t>(flags.get_int("shards", 0)));
  if (paths.empty()) {
    std::fprintf(stderr, "no result files under %s\n", out_dir.c_str());
    return 2;
  }
  for (const std::string& p : paths) {
    const serving::ResultIndex idx = serving::ResultIndex::rebuild(p);
    std::printf("%s: %zu records indexed\n",
                serving::ResultIndex::sidecar_path(p).c_str(),
                idx.entries().size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.has("help-params")) {
    std::fputs(scenario::params_help().c_str(), stdout);
    return 0;
  }
  if (flags.has("help") || flags.positional().size() < 2) {
    print_usage();
    return flags.has("help") ? 0 : 2;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  const std::string cmd = flags.positional()[0];
  const std::string manifest_path = flags.positional()[1];
  const std::string out_dir = flags.get_string("out", "");
  if (out_dir.empty()) {
    std::fprintf(stderr, "--out=DIR is required\n");
    return 2;
  }

  scenario::ScenarioConfig base;
  for (const std::string& kv : flags.get_all("set")) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "--set expects KEY=VALUE, got '%s'\n", kv.c_str());
      return 2;
    }
    const std::string key = kv.substr(0, eq);
    if (const auto owner = campaign::axis_owner(key); !owner.empty()) {
      std::fprintf(stderr,
                   "--set %s: grid axis owned by the manifest (use %.*s)\n",
                   key.c_str(), static_cast<int>(owner.size()), owner.data());
      return 2;
    }
    try {
      scenario::set_param(base, key, kv.substr(eq + 1));
    } catch (const scenario::ParamError& e) {
      std::fprintf(stderr, "--set %s: %s\n", kv.c_str(), e.what());
      return 2;
    }
  }

  try {
    const campaign::Manifest manifest =
        campaign::parse_manifest_file(manifest_path);
    if (cmd == "run") {
      return cmd_run(manifest, base, manifest_path, out_dir, flags, false);
    }
    if (cmd == "resume") {
      return cmd_run(manifest, base, manifest_path, out_dir, flags, true);
    }
    if (cmd == "worker") return cmd_worker(manifest, base, out_dir, flags);
    if (cmd == "serve") return cmd_serve(manifest, base, out_dir, flags);
    if (cmd == "export") return cmd_export(out_dir, flags);
    if (cmd == "status") return cmd_status(manifest, base, out_dir);
    if (cmd == "reindex") return cmd_reindex(out_dir, flags);
    std::fprintf(stderr, "unknown subcommand '%s' (see --help)\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rcast_campaignd: %s\n", e.what());
    return 1;
  }
}
