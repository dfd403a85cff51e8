// campaignd_query: a spawned `rcast_campaignd serve` over a pre-written
// store of synthetic records, queried by an open-loop client while a writer
// appends new records beside it (so refresh and per-cell cache invalidation
// run under load). Every response is checked against the answer computed
// in-process from the same records.
//
// Threads: the daemon runs 2 HTTP workers; the client runs one generator
// thread driving 2 keep-alive connections and one writer thread, so busy
// client and daemon threads stay at 4 (the reference box's nproc).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "campaign/json.hpp"
#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "harness/common.hpp"
#include "scenario/policy_registry.hpp"
#include "serving/result_index.hpp"

extern char** environ;

namespace rcast::perfbench {
namespace {

namespace fs = std::filesystem;

// Workload shape. 50 cells (2 schemes x 5 rates x 5 node counts); every
// cell starts with kBulkSeeds records and the writer appends further seeds.
// A cold cell aggregate parses every record of the cell (~80 us each: a
// 2000-record cold fold took 160 ms in BENCH_serving.json), so each append
// costs the next reader of that cell one re-fold of ~kBulkSeeds records
// under the service lock. At the 2000 records per cell of that record, the
// writer's appends alone would keep the lock busy for over a second per
// second; 100 per cell keeps a re-fold near 8 ms.
constexpr std::size_t kBulkSeeds = 100;
constexpr std::size_t kWriterSeeds = 8;  // reserve per cell: 400 appends
constexpr std::size_t kShards = 2;
// The writer appends at the rate a campaign lands results: fig6_campaign
// completes 54 jobs in a median 8.07 s on the reference box (6.7 jobs/s).
constexpr double kWriteRate = 54.0 / 8.07;
// The client polls as the README's watch-and-query loop does: each poll
// reads a raw record, one cell's aggregate and the whole-store CSV, plus
// one grid-filtered CSV, all four due at once. No caller in the repository
// sets a poll rate, so the open-loop rate is a quarter of the read-only
// capacity the ladder below measured on the seed code with this mix (2000
// req/s). The rate trades two effects of the reference box's host. At half
// capacity, each vCPU stall that steal caused left a backlog the median poll
// waited behind: 5-23 % steal moved it from 1.2 to 7.9 ms. At an eighth,
// the daemon idles between polls and each poll pays the VM's wake-ups: 1.9
// ms at 7-12 % steal but 2.9 ms at 1 %. A quarter moved least: 1.4-2.5 ms
// over 0-17 % steal.
constexpr std::size_t kPollSize = 4;
constexpr double kQueryRate = 500.0;  // requests/s, open loop
constexpr double kTimeoutS = 2.0;      // a request slower than this failed
// rcast_campaignd refreshes its view of the store at most every 200 ms, so a
// request sent this long after an append completed must see the append.
constexpr double kFreshS = 0.25;
constexpr int kConnections = 2;
constexpr int kHttpThreads = 2;
// Capacity ladder (traced run): read-only mix, 1.5 s per step; the highest
// step whose p99 from due time stays within kSloP99Ms (a growing backlog
// shows there, since latency counts from the due time). The limit comes from
// the seed code on the reference box: p99 was 1.4-9 ms at 1-2k req/s and
// 113-253 ms at 4k.
constexpr double kLadder[] = {1000, 2000, 4000, 8000, 16000, 32000};
constexpr double kLadderStepS = 1.5;
constexpr double kSloP99Ms = 10.0;

// ------------------------------------------------------------------ store --

struct Cell {
  std::uint64_t digest = 0;
  scenario::Scheme scheme = scenario::Scheme::kRcast;
  std::size_t nodes = 0;
  double rate = 0.0;
  campaign::AggregateAccumulator acc;
  /// versions[k]: the cell's aggregate after k writer appends.
  std::vector<campaign::AggregateRow> versions;
};

struct Store {
  std::string dir;
  std::string manifest_path;
  std::vector<std::string> paths;
  std::vector<std::uint64_t> bulk_digests;  // query targets
  std::unordered_map<std::uint64_t, std::uint64_t> line_hash;  // cfg -> fnv1a of the line
  std::vector<Cell> cells;                   // job (first-appearance) order
  std::unordered_map<std::uint64_t, std::size_t> cell_of;  // digest -> idx
  std::vector<campaign::Job> pending;        // writer's records, in order
  std::vector<std::size_t> pending_cell;
  /// Pending records the writer has appended so far (across phases), and
  /// the cell version each append produced.
  std::size_t appended = 0;
  std::vector<std::size_t> append_version;
};

/// Synthetic but exactly representable results (quarter steps), so the
/// JSONL round trip cannot perturb the in-process aggregates.
scenario::RunResult synthetic_result(std::mt19937_64& rng) {
  scenario::RunResult r;
  r.per_node_energy_j = {static_cast<double>(rng() % 64),
                         static_cast<double>(rng() % 64)};
  r.pdr_percent = 50.0 + static_cast<double>(rng() % 200) / 4.0;
  r.total_energy_j = 10.0 + static_cast<double>(rng() % 400) / 4.0;
  r.energy_variance = static_cast<double>(rng() % 1000) / 8.0;
  r.energy_mean_j = r.total_energy_j / 2.0;
  r.avg_delay_s = static_cast<double>(rng() % 256) / 256.0;
  r.originated = 100 + rng() % 50;
  r.delivered = r.originated - rng() % 20;
  r.control_tx = rng() % 1000;
  return r;
}

serving::IndexEntry index_entry(const campaign::Job& job,
                                const campaign::AppendExtent& ext,
                                std::uint64_t cell) {
  serving::IndexEntry e;
  e.job = job.index;
  e.offset = ext.offset;
  e.length = ext.length;
  e.cfg_digest = serving::digest_to_u64(job.digest);
  e.cell_digest = cell;
  e.scheme = static_cast<std::uint8_t>(job.cfg.scheme);
  e.routing = static_cast<std::uint8_t>(job.cfg.routing);
  e.mobility = static_cast<std::uint8_t>(
      scenario::mobility_models().index_of(job.cfg.mobility_model));
  e.traffic = static_cast<std::uint8_t>(
      scenario::traffic_patterns().index_of(job.cfg.traffic_pattern));
  e.nodes = static_cast<std::uint32_t>(job.cfg.num_nodes);
  e.flows = static_cast<std::uint32_t>(job.cfg.num_flows);
  e.rate_pps = job.cfg.rate_pps;
  e.pause_s = sim::to_seconds(job.cfg.pause);
  e.duration_s = sim::to_seconds(job.cfg.duration);
  e.seed = job.cfg.seed;
  return e;
}

campaign::JobRecord job_record(const campaign::Job& job, std::uint64_t cell,
                               const scenario::RunResult& r) {
  campaign::JobRecord rec;
  rec.job = job.index;
  rec.id = job.id;
  rec.digest = job.digest;
  rec.cfg = job.cfg;
  rec.cell = hex16(cell);
  rec.scheme = job.cfg.scheme;
  rec.routing = job.cfg.routing;
  rec.mobility = job.cfg.mobility_model;
  rec.traffic = job.cfg.traffic_pattern;
  rec.nodes = job.cfg.num_nodes;
  rec.flows = job.cfg.num_flows;
  rec.rate_pps = job.cfg.rate_pps;
  rec.pause_s = sim::to_seconds(job.cfg.pause);
  rec.duration_s = sim::to_seconds(job.cfg.duration);
  rec.seed = job.cfg.seed;
  rec.result = r;
  return rec;
}

constexpr const char* kManifest =
    "name = campaignd_e2e\n"
    "schemes = rcast, odpm\n"
    "rates_pps = 0.5, 1, 2, 4, 8\n"
    "nodes = 10, 20, 30, 40, 50\n"
    "duration_s = 10\n";

/// Writes the bulk store: records are the exact bytes ResultStore::append
/// writes (record_to_json), spread over two shard files by job index, each
/// indexed into its sidecar the way a campaign worker does. The bulk skips
/// ResultStore's per-record fsync, which would make set-up minutes long;
/// the writer beside the queries uses ResultStore::append itself.
Store build_store(const Options& opt, std::size_t bulk_seeds,
                  std::size_t writer_seeds,
                  std::vector<serving::ResultIndex>& indexes) {
  Store st;
  st.dir = opt.work_dir + "/campaignd";
  fs::remove_all(st.dir);
  fs::create_directories(st.dir);
  st.manifest_path = st.dir + "/manifest.txt";
  std::string text = kManifest;
  text += "seeds = " + std::to_string(bulk_seeds + writer_seeds) + "\n";
  std::ofstream(st.manifest_path) << text;
  const scenario::ScenarioConfig base;  // named: see kBase in sim_workloads
  const std::vector<campaign::Job> jobs =
      campaign::expand(campaign::parse_manifest(text), base);
  const std::size_t per_cell = bulk_seeds + writer_seeds;

  std::vector<std::FILE*> files;
  std::vector<std::uint64_t> offsets(kShards, 0);
  for (std::size_t k = 0; k < kShards; ++k) {
    st.paths.push_back(st.dir + "/results.shard" + std::to_string(k) + ".jsonl");
    files.push_back(std::fopen(st.paths.back().c_str(), "wb"));
    if (files.back() == nullptr) throw std::runtime_error("cannot write store");
    indexes.push_back(serving::ResultIndex::open(st.paths.back()));
  }

  std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<std::pair<std::size_t, serving::IndexEntry>> entries;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const campaign::Job& job = jobs[i];
    if (i % per_cell == 0) {
      Cell c;
      c.digest = serving::digest_to_u64(campaign::config_cell_digest(job.cfg));
      c.scheme = job.cfg.scheme;
      c.nodes = job.cfg.num_nodes;
      c.rate = job.cfg.rate_pps;
      st.cell_of[c.digest] = st.cells.size();
      st.cells.push_back(std::move(c));
    }
    Cell& cell = st.cells.back();
    if (i % per_cell >= bulk_seeds) {
      st.pending.push_back(job);
      st.pending_cell.push_back(st.cells.size() - 1);
      continue;
    }
    const scenario::RunResult r = synthetic_result(rng);
    const std::string line = campaign::record_to_json(job, r, 1.5);
    const std::size_t k = job.index % kShards;
    std::fwrite(line.data(), 1, line.size(), files[k]);
    std::fputc('\n', files[k]);
    campaign::AppendExtent ext;
    ext.offset = offsets[k];
    ext.length = static_cast<std::uint32_t>(line.size());
    offsets[k] += line.size() + 1;
    entries.emplace_back(k, index_entry(job, ext, cell.digest));
    const std::uint64_t cfg = serving::digest_to_u64(job.digest);
    st.bulk_digests.push_back(cfg);
    st.line_hash[cfg] = fnv1a(line);
    cell.acc.add(job_record(job, cell.digest, r));
  }
  for (std::FILE* f : files) {
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write store");
  }
  for (const auto& [k, e] : entries) indexes[k].append(e);
  for (Cell& c : st.cells) c.versions.push_back(c.acc.rows().front());

  // The writer appends the pending records round by round, one per cell per
  // round, cells in a seeded order.
  std::vector<std::size_t> cell_order(st.cells.size());
  for (std::size_t c = 0; c < cell_order.size(); ++c) cell_order[c] = c;
  std::vector<campaign::Job> pending;
  std::vector<std::size_t> pending_cell;
  for (std::size_t j = 0; j < writer_seeds; ++j) {
    std::shuffle(cell_order.begin(), cell_order.end(), rng);
    for (std::size_t c : cell_order) {
      pending.push_back(st.pending[c * writer_seeds + j]);
      pending_cell.push_back(c);
    }
  }
  st.pending = std::move(pending);
  st.pending_cell = std::move(pending_cell);
  return st;
}

// ----------------------------------------------------------------- daemon --

class Daemon {
 public:
  Daemon(const std::string& binary, const Store& st) {
    port_file_ = st.dir + "/port";
    fs::remove(port_file_);
    std::vector<std::string> args = {
        binary,
        "serve",
        st.manifest_path,
        "--out=" + st.dir,
        "--shards=" + std::to_string(kShards),
        "--port=0",
        "--port-file=" + port_file_,
        "--http-threads=" + std::to_string(kHttpThreads),
    };
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    // The harness's stdout carries its report; the daemon's chatter goes away.
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null", O_WRONLY, 0);
    const int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot spawn " + binary);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the port file appears (the server is bound); 0 if the
  /// daemon exits or 60 s pass first.
  std::uint16_t wait_port() {
    const auto t0 = Clock::now();
    while (seconds_between(t0, Clock::now()) < 60.0) {
      std::ifstream in(port_file_);
      unsigned port = 0;
      if (in >> port && port != 0) return static_cast<std::uint16_t>(port);
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return 0;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return 0;
  }

  /// Peak resident set of the daemon so far (VmHWM), in MB.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (in >> key) {
      if (key == "VmHWM:") {
        double kb = 0.0;
        in >> kb;
        return kb / 1024.0;
      }
      in.ignore(1 << 16, '\n');
    }
    return 0.0;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::string port_file_;
};

// ----------------------------------------------------------------- client --

/// One keep-alive connection with at most one request in flight.
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close();
    }
  }
  ~Conn() { close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  bool send_get(const std::string& target) {
    const std::string req = "GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n";
    return ::send(fd_, req.data(), req.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(req.size());
  }

  /// Reads what is available without blocking; true once a whole response
  /// is buffered (status and body filled). Throws on a closed connection or
  /// a response without Content-Length.
  bool poll_response(int& status, std::string& body) {
    char tmp[65536];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), MSG_DONTWAIT);
    if (n == 0) throw std::runtime_error("connection closed");
    if (n > 0) buf_.append(tmp, static_cast<std::size_t>(n));
    const std::size_t head_end = buf_.find("\r\n\r\n");
    if (head_end == std::string::npos) return false;
    const std::size_t cl = buf_.find("Content-Length: ");
    if (cl == std::string::npos || cl > head_end) {
      throw std::runtime_error("response without Content-Length");
    }
    const std::size_t len = std::strtoull(buf_.c_str() + cl + 16, nullptr, 10);
    if (buf_.size() < head_end + 4 + len) return false;
    status = std::atoi(buf_.c_str() + 9);
    body = buf_.substr(head_end + 4, len);
    buf_.erase(0, head_end + 4 + len);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Blocking GET on a fresh connection (readiness and /status); nullopt on
/// any failure or a non-200 answer.
std::optional<std::string> get_once(std::uint16_t port, const std::string& target) {
  Conn c(port);
  if (!c.ok() || !c.send_get(target)) return std::nullopt;
  int status = 0;
  std::string body;
  const auto t0 = Clock::now();
  try {
    while (!c.poll_response(status, body)) {
      if (seconds_between(t0, Clock::now()) > kTimeoutS) return std::nullopt;
      pollfd p{c.fd(), POLLIN, 0};
      ::poll(&p, 1, 10);
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (status != 200) return std::nullopt;
  return body;
}

enum Kind { kResults = 0, kCell = 1, kCsv = 2 };

struct Filter {
  const char* query;
  std::optional<scenario::Scheme> scheme;
  std::size_t nodes;  // 0 = any
  double rate;        // 0 = any
};
const Filter kFilters[] = {
    {"", std::nullopt, 0, 0.0},  // the whole store, as the README polls it
    {"scheme=rcast&nodes=30", scenario::Scheme::kRcast, 30, 0.0},
    {"scheme=odpm&rate_pps=2", scenario::Scheme::kOdpm, 0, 2.0},
    {"nodes=10&rate_pps=8", std::nullopt, 10, 8.0},
};

struct Request {
  Kind kind = kResults;
  std::uint64_t digest = 0;  // kResults: cfg digest; kCell: cell digest
  std::size_t filter = 0;    // kCsv: index into kFilters
  double due = 0.0;          // seconds since the phase started
  double sent = -1.0;
  double done = -1.0;
  bool gen_late = false;     // a connection was free at the due time
  int status = 0;            // HTTP status; < 0 refused/closed/timed out
  std::string body;
  // The answer must reflect every append of the store up to writes_min and
  // none past writes_visible (counts over Store::pending).
  std::size_t writes_min = 0;      // appends done kFreshS before the send
  std::size_t writes_visible = 0;  // appends begun when the answer came
  long probe = -1;                 // the append this request looks up
  std::string target() const {
    switch (kind) {
      case kResults: return "/results?digest=" + hex16(digest);
      case kCell: return "/aggregate?cell=" + hex16(digest);
      case kCsv: {
        const std::string query = kFilters[filter].query;
        return query.empty() ? "/aggregate" : "/aggregate?" + query;
      }
    }
    return "/";
  }
};

/// Appends the store's next pending records at a fixed rate through
/// ResultStore::append (fsync per record, as a campaign worker does), then
/// indexes each into its shard's sidecar, where the daemon adopts it.
class Writer {
 public:
  Writer(const Store& st, std::vector<serving::ResultIndex>& indexes,
         std::uint64_t seed)
      : st_(st), indexes_(indexes), first_(st.appended), rng_(seed) {}
  ~Writer() { stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void start(double rate, Clock::time_point t0) {
    thread_ = std::thread([this, rate, t0] { loop(rate, t0); });
  }
  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  /// Appends completed so far (safe from any thread).
  std::size_t completed() const { return completed_.load(); }
  /// Appends begun so far: the daemon may already see one in flight.
  std::size_t begun() const { return begun_.load(); }
  /// When the k-th append of this writer completed (k < completed()).
  double done_at(std::size_t k) const { return done_at_[k]; }
  std::size_t first() const { return first_; }

  // Valid after stop().
  std::vector<scenario::RunResult> results;
  std::vector<double> append_us;
  std::string error;

 private:
  void loop(double rate, Clock::time_point t0) {
    try {
      std::vector<campaign::ResultStore> stores;
      for (const std::string& p : st_.paths) {
        stores.push_back(campaign::ResultStore::open_append(p));
      }
      done_at_.resize(st_.pending.size() - first_);
      for (std::size_t k = 0; !stop_ && first_ + k < st_.pending.size(); ++k) {
        const double due = static_cast<double>(k + 1) / rate;
        while (!stop_ && seconds_between(t0, Clock::now()) < due) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (stop_) break;
        const campaign::Job& job = st_.pending[first_ + k];
        const scenario::RunResult r = synthetic_result(rng_);
        const std::size_t shard = job.index % kShards;
        const std::uint64_t cell = st_.cells[st_.pending_cell[first_ + k]].digest;
        const auto a0 = Clock::now();
        begun_.store(k + 1);
        const campaign::AppendExtent ext = stores[shard].append(job, r, 1.5);
        indexes_[shard].append(index_entry(job, ext, cell));
        const auto a1 = Clock::now();
        append_us.push_back(1e6 * seconds_between(a0, a1));
        results.push_back(r);
        done_at_[k] = seconds_between(t0, a1);
        completed_.store(k + 1);
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
  }

  const Store& st_;
  std::vector<serving::ResultIndex>& indexes_;
  const std::size_t first_;
  std::mt19937_64 rng_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> begun_{0};
  std::atomic<std::size_t> completed_{0};
  std::vector<double> done_at_;  // sized before the first append
  std::thread thread_;
};

struct Phase {
  std::vector<Request> reqs;
};

/// The request schedule of one phase: `rate` requests/s in polls of
/// kPollSize requests. Poll p falls due at p * kPollSize / rate seconds; its
/// record, cell and filter are drawn from the seeded mix.
Phase schedule(const Store& st, double rate, double seconds, std::uint64_t mix_seed) {
  Phase ph;
  std::mt19937_64 rng(mix_seed);
  const auto polls = static_cast<std::size_t>(rate * seconds) / kPollSize;
  ph.reqs.resize(polls * kPollSize);
  for (std::size_t p = 0; p < polls; ++p) {
    Request* q = &ph.reqs[p * kPollSize];
    for (std::size_t i = 0; i < kPollSize; ++i) {
      q[i].due = static_cast<double>(p * kPollSize) / rate;
    }
    q[0].kind = kResults;
    q[0].digest = st.bulk_digests[rng() % st.bulk_digests.size()];
    q[1].kind = kCell;
    q[1].digest = st.cells[rng() % st.cells.size()].digest;
    q[2].kind = kCsv;
    q[2].filter = 0;
    q[3].kind = kCsv;
    q[3].filter = 1 + rng() % (std::size(kFilters) - 1);
  }
  return ph;
}

/// The open-loop generator. Each request of `ph` leaves at its due time
/// (relative to `t0`) whatever happened to earlier ones, on the first free
/// connection; its latency counts from the due time, so a stall charges
/// every request queued behind it. A request unanswered after kTimeoutS
/// fails and its connection is replaced. While a writer runs, the first
/// /results request after each append looks up the appended record. Without
/// a writer, every answer must show the whole store as it stands.
void drive(std::uint16_t port, const Store& st, Phase& ph, const Writer* writer,
           Clock::time_point t0, Spans& spans, int parent) {
  const std::size_t total = ph.reqs.size();
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < kConnections; ++c) conns.push_back(std::make_unique<Conn>(port));
  std::vector<long> inflight(kConnections, -1);
  std::vector<double> free_since(kConnections, 0.0);
  std::vector<int> span_of(kConnections, -1);
  std::size_t probed = 0;  // writer appends already looked up
  std::size_t fresh = 0;   // writer appends done kFreshS ago
  std::size_t next = 0;
  const auto busy = [&] {
    int n = 0;
    for (long f : inflight) n += f >= 0;
    return n;
  };

  while (next < total || busy() > 0) {
    // Send every due request that has a free connection.
    for (int c = 0; c < kConnections && next < total; ++c) {
      if (inflight[c] >= 0) continue;
      Request& q = ph.reqs[next];
      const double t = seconds_between(t0, Clock::now());
      if (q.due > t) break;
      if (q.kind == kResults && writer != nullptr && probed < writer->completed()) {
        probed = writer->completed();
        q.probe = static_cast<long>(probed - 1);
        q.digest = serving::digest_to_u64(
            st.pending[writer->first() + probed - 1].digest);
      }
      // Lateness is the generator's own if this connection was already
      // free when the request fell due.
      q.gen_late = free_since[c] <= q.due;
      if (writer != nullptr) {
        while (fresh < writer->completed() && writer->done_at(fresh) < t - kFreshS) {
          ++fresh;
        }
        q.writes_min = writer->first() + fresh;
      } else {
        q.writes_min = st.appended;
      }
      if (!conns[c]->ok()) conns[c] = std::make_unique<Conn>(port);
      q.sent = t;
      const std::string target = q.target();
      span_of[c] = spans.open(target.substr(0, target.find('?')), parent);
      if (conns[c]->ok() && conns[c]->send_get(target)) {
        inflight[c] = static_cast<long>(next);
      } else {
        q.status = -1;  // refused
        q.done = t;
        spans.close(span_of[c]);
        conns[c]->close();
      }
      ++next;
    }

    // Wait for a response, or spin until the next request is due.
    std::vector<pollfd> fds;
    std::vector<int> which;
    for (int c = 0; c < kConnections; ++c) {
      if (inflight[c] >= 0) {
        fds.push_back({conns[c]->fd(), POLLIN, 0});
        which.push_back(c);
      }
    }
    // The generator owns one core and polls without sleeping: a sleeping
    // thread's wake-up latency on a VM would show up as request latency.
    if (fds.empty()) continue;
    ::poll(fds.data(), fds.size(), 0);
    for (std::size_t f = 0; f < fds.size(); ++f) {
      const int c = which[f];
      Request& q = ph.reqs[static_cast<std::size_t>(inflight[c])];
      bool complete = false;
      try {
        if (fds[f].revents != 0) complete = conns[c]->poll_response(q.status, q.body);
      } catch (const std::exception&) {
        q.status = -2;  // closed or malformed
        complete = true;
        conns[c]->close();
      }
      const double t = seconds_between(t0, Clock::now());
      if (!complete && t - q.sent > kTimeoutS) {
        q.status = -3;  // timed out
        complete = true;
        conns[c]->close();
      }
      if (complete) {
        q.done = t;
        q.writes_visible =
            writer != nullptr ? writer->first() + writer->begun() : st.appended;
        spans.close(span_of[c]);
        inflight[c] = -1;
        free_since[c] = t;
      }
    }
  }
}

/// Latency of each request from its due time, in seconds; a failed request
/// counts as missing any limit.
std::vector<double> latencies(const Phase& ph) {
  std::vector<double> v;
  for (const Request& q : ph.reqs) v.push_back(q.status == 200 ? q.done - q.due : 1e9);
  return v;
}

/// Latency of each poll: from its due time until its last answer. A poll
/// with a failed request counts as missing any limit.
std::vector<double> poll_latencies(const Phase& ph) {
  const std::vector<double> lat = latencies(ph);
  std::vector<double> v;
  for (std::size_t p = 0; p + kPollSize <= lat.size(); p += kPollSize) {
    v.push_back(*std::max_element(lat.begin() + p, lat.begin() + p + kPollSize));
  }
  return v;
}

double kind_p50_us(const Phase& ph, Kind k) {
  std::vector<double> v;
  for (const Request& q : ph.reqs) {
    if (q.kind == k && q.status == 200 && q.probe < 0) {
      v.push_back(1e6 * (q.done - q.sent));
    }
  }
  return v.empty() ? 0.0 : median(v);
}

// ------------------------------------------------------------- validation --

/// Folds a writer's appends into the expected answers: each append adds a
/// version of its cell's aggregate and the hash of its record line.
void absorb_writes(Store& st, const Writer& w) {
  for (std::size_t k = 0; k < w.results.size(); ++k) {
    const std::size_t p = w.first() + k;
    const campaign::Job& job = st.pending[p];
    Cell& c = st.cells[st.pending_cell[p]];
    c.acc.add(job_record(job, c.digest, w.results[k]));
    c.versions.push_back(c.acc.rows().front());
    st.append_version.push_back(c.versions.size() - 1);
    st.line_hash[serving::digest_to_u64(job.digest)] =
        fnv1a(campaign::record_to_json(job, w.results[k], 1.5));
  }
  st.appended += w.results.size();
}

/// The version of cell `c` after the first `visible` appends.
std::size_t version_after(const Store& st, std::size_t c, std::size_t visible) {
  for (std::size_t k = std::min(visible, st.append_version.size()); k-- > 0;) {
    if (st.pending_cell[k] == c) return st.append_version[k];
  }
  return 0;
}

bool cell_json_matches(const std::string& body, const campaign::AggregateRow& row) {
  try {
    const campaign::json::Value v = campaign::json::parse(body);
    const scenario::RunResult& m = row.mean;
    return v.at("cell").as_string() == row.cell &&
           v.at("seeds").as_u64() == row.seeds &&
           v.at("nodes").as_u64() == row.nodes &&
           v.at("rate_pps").as_double() == row.rate_pps &&
           v.at("pdr_pct").as_double() == m.pdr_percent &&
           v.at("energy_j").as_double() == m.total_energy_j &&
           v.at("energy_var").as_double() == m.energy_variance &&
           v.at("energy_mean_j").as_double() == m.energy_mean_j &&
           v.at("delay_s").as_double() == m.avg_delay_s &&
           v.at("ctrl_tx").as_u64() == m.control_tx;
  } catch (const std::exception&) {
    return false;
  }
}

/// One aggregate row as its CSV line (header stripped).
std::string csv_line(const campaign::AggregateRow& row) {
  const std::string csv = campaign::aggregate_csv({row});
  return csv.substr(csv.find('\n') + 1);
}

/// True if the response is exactly what the in-process records give, at
/// some version of the store that holds every append done kFreshS before
/// the request left and none begun after the answer arrived: a stale cached
/// aggregate fails as surely as a wrong one.
bool response_ok(const Store& st, const Request& q) {
  if (q.status != 200) return false;
  switch (q.kind) {
    case kResults: {
      const auto it = st.line_hash.find(q.digest);
      return it != st.line_hash.end() && it->second == fnv1a(q.body);
    }
    case kCell: {
      const std::size_t c = st.cell_of.at(q.digest);
      const std::size_t top = version_after(st, c, q.writes_visible);
      for (std::size_t v = version_after(st, c, q.writes_min); v <= top; ++v) {
        if (cell_json_matches(q.body, st.cells[c].versions[v])) return true;
      }
      return false;
    }
    case kCsv: {
      const Filter& f = kFilters[q.filter];
      const std::string header = campaign::aggregate_csv({});
      if (q.body.compare(0, header.size(), header) != 0) return false;
      std::size_t pos = header.size();
      for (std::size_t c = 0; c < st.cells.size(); ++c) {
        const Cell& cell = st.cells[c];
        if ((f.scheme && *f.scheme != cell.scheme) ||
            (f.nodes != 0 && f.nodes != cell.nodes) ||
            (f.rate != 0.0 && f.rate != cell.rate)) {
          continue;
        }
        const std::size_t end = q.body.find('\n', pos);
        if (end == std::string::npos) return false;
        const std::string line = q.body.substr(pos, end + 1 - pos);
        bool ok = false;
        const std::size_t top = version_after(st, c, q.writes_visible);
        for (std::size_t v = version_after(st, c, q.writes_min); !ok && v <= top; ++v) {
          ok = csv_line(cell.versions[v]) == line;
        }
        if (!ok) return false;
        pos = end + 1;
      }
      return pos == q.body.size();
    }
  }
  return false;
}

void check_phase(Report& rep, const Store& st, const Phase& ph,
                 const std::string& name) {
  std::size_t bad = 0;
  std::string first;
  for (const Request& q : ph.reqs) {
    ++rep.attempted;
    if (!response_ok(st, q)) {
      ++bad;
      if (first.empty()) first = q.target() + " -> " + std::to_string(q.status);
    }
  }
  rep.failed += bad;
  if (bad > 0 && rep.errors.size() < 20) {
    rep.errors.push_back("campaignd_query " + name + ": " + std::to_string(bad) +
                         " wrong, failed or late responses (first: " + first + ")");
  }
}

/// After a writer phase: waits out the daemon's refresh throttle, then
/// requires /status to count every record, and every cell and CSV query to
/// answer with the store's newest state exactly. A daemon that keeps serving
/// a stale cached aggregate fails here even where no request of the phase
/// caught it.
void check_settled(Report& rep, std::uint16_t port, const Store& st) {
  std::this_thread::sleep_for(std::chrono::duration<double>(kFreshS));
  std::uint64_t records = 0;
  if (const auto status = get_once(port, "/status")) {
    try {
      records = campaign::json::parse(*status).at("records").as_u64();
    } catch (const std::exception&) {
    }
  }
  const std::size_t want = st.bulk_digests.size() + st.appended;
  rep.check(records == want, "campaignd_query: /status counts " +
                                 std::to_string(records) + " records, not " +
                                 std::to_string(want));
  Phase ph;
  for (const Cell& c : st.cells) {
    ph.reqs.push_back({});
    ph.reqs.back().kind = kCell;
    ph.reqs.back().digest = c.digest;
  }
  for (std::size_t f = 0; f < std::size(kFilters); ++f) {
    ph.reqs.push_back({});
    ph.reqs.back().kind = kCsv;
    ph.reqs.back().filter = f;
  }
  for (Request& q : ph.reqs) {
    q.writes_min = q.writes_visible = st.appended;
    if (const auto body = get_once(port, q.target())) {
      q.status = 200;
      q.body = *body;
    }
  }
  check_phase(rep, st, ph, "settled");
}

}  // namespace

void run_campaignd_query(const Options& opt, Report& rep, Spans& spans) {
  std::vector<serving::ResultIndex> indexes;
  Store st;
  {
    ScopedSpan s(spans, "setup.store");
    const auto t0 = Clock::now();
    st = build_store(opt, opt.tiny ? 20 : kBulkSeeds, kWriterSeeds, indexes);
    rep.info["store_build_s"] = std::to_string(seconds_between(t0, Clock::now()));
  }
  rep.info["records"] = std::to_string(st.bulk_digests.size());

  // One set-up sample: spawn the daemon, wait until /status answers
  // (ready), then fill its aggregate cache with one query per cell. The
  // host's speed drifts over seconds, so two samples come before the
  // measured phases and three after them, each replacing the daemon.
  std::vector<double> ready, setup;
  std::unique_ptr<Daemon> daemon;
  std::uint16_t port = 0;
  const auto set_up = [&] {
    daemon.reset();
    ScopedSpan s(spans, "setup.daemon");
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opt.daemon, st);
    port = daemon->wait_port();
    if (port == 0 || !get_once(port, "/status")) {
      throw std::runtime_error("rcast_campaignd did not become ready");
    }
    ready.push_back(seconds_between(t0, Clock::now()));
    for (const Cell& c : st.cells) {
      const auto body = get_once(port, "/aggregate?cell=" + hex16(c.digest));
      rep.check(body && cell_json_matches(*body, c.versions.back()),
                "campaignd_query: warm-up answer for cell " + hex16(c.digest));
    }
    setup.push_back(seconds_between(t0, Clock::now()));
  };
  set_up();
  set_up();

  // One phase: open-loop queries with the writer appending beside them,
  // validated afterwards against the in-process answers.
  std::vector<double> append_us;
  const auto phase = [&](const std::string& name, double secs, bool traced,
                         std::uint64_t mix) {
    Spans off(false);
    Spans& sp = traced ? spans : off;
    ScopedSpan s(sp, name);
    Writer writer(st, indexes, opt.seed * 7919 + mix);
    Phase ph = schedule(st, kQueryRate, secs, mix);
    const auto t0 = Clock::now();
    writer.start(kWriteRate, t0);
    drive(port, st, ph, &writer, t0, sp, s.id());
    writer.stop();
    rep.check(writer.error.empty(), "campaignd_query: writer: " + writer.error);
    absorb_writes(st, writer);
    check_phase(rep, st, ph, name);
    check_settled(rep, port, st);
    append_us.insert(append_us.end(), writer.append_us.begin(), writer.append_us.end());
    std::vector<double> lag;
    for (const Request& q : ph.reqs) {
      if (q.probe >= 0 && q.status == 200) {
        lag.push_back(1e3 * (q.done - writer.done_at(static_cast<std::size_t>(q.probe))));
      }
    }
    return std::make_pair(std::move(ph), std::move(lag));
  };

  const double secs = opt.tiny ? std::min(opt.seconds, 1.0) : opt.seconds;
  const auto [ph, lag] = phase("phase", opt.trace ? secs / 2.0 : secs, false,
                               opt.seed * 1000 + 1);
  const std::vector<double> lat = latencies(ph);
  rep.e2e["wall_s"] = median(poll_latencies(ph));
  rep.info["requests"] = std::to_string(ph.reqs.size());
  rep.info["query_p50_us"] = std::to_string(1e6 * median(lat));
  rep.info["query_p99_us"] = std::to_string(1e6 * percentile(lat, 99));
  {
    double sum = 0.0;
    for (double x : lat) sum += x;
    rep.info["query_mean_us"] = std::to_string(1e6 * sum / static_cast<double>(lat.size()));
  }
  for (const auto& [name, p] : {std::pair{"p90", 90.0}, {"p999", 99.9}, {"max", 100.0}}) {
    rep.info[std::string("query_") + name + "_us"] = std::to_string(1e6 * percentile(lat, p));
  }
  for (const auto& [name, k] : {std::pair{"results", kResults}, {"cell", kCell}, {"csv", kCsv}}) {
    std::vector<double> v;
    for (const Request& q : ph.reqs) {
      if (q.kind == k) v.push_back(q.status == 200 ? q.done - q.due : 1e9);
    }
    rep.info[std::string("query_p50_us.") + name] = std::to_string(1e6 * median(v));
    rep.info[std::string("query_p90_us.") + name] = std::to_string(1e6 * percentile(v, 90));
  }

  std::optional<Phase> traced;
  if (opt.trace) traced = phase("phase.traced", secs / 2.0, true, opt.seed * 1000 + 2).first;

  // The daemon that served the phases: its peak memory and cache counts.
  rep.e2e["peak_rss_mb"] = daemon->peak_rss_mb();
  if (opt.trace) {
    if (const auto status = get_once(port, "/status")) {
      const campaign::json::Value v = campaign::json::parse(*status);
      const double hits = v.at("cache").at("hits").as_double();
      const double misses = v.at("cache").at("misses").as_double();
      rep.layers["serving.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    } else {
      rep.check(false, "campaignd_query: /status failed after the run");
    }
  }
  for (int i = 0; i < 3; ++i) set_up();
  rep.e2e["setup_s"] = median(setup);

  if (opt.trace) {
    std::vector<double> gen_late;
    for (const Request& q : ph.reqs) {
      if (q.gen_late && q.sent >= 0.0) gen_late.push_back(1e3 * (q.sent - q.due));
    }
    rep.layers["serving.ready_s"] = median(ready);
    rep.layers["serving.results_us.p50"] = kind_p50_us(ph, kResults);
    rep.layers["serving.aggregate_cell_us.p50"] = kind_p50_us(ph, kCell);
    rep.layers["serving.aggregate_csv_us.p50"] = kind_p50_us(ph, kCsv);
    rep.layers["serving.query_p99_ms"] = 1e3 * percentile(lat, 99);
    rep.layers["serving.refresh_lag_ms"] = lag.empty() ? 0.0 : median(lag);
    rep.layers["serving.gen_late_ms"] = gen_late.empty() ? 0.0 : percentile(gen_late, 99);
    rep.layers["campaign.append_us"] = append_us.empty() ? 0.0 : median(append_us);
    rep.layers["trace.overhead_ratio"] =
        median(poll_latencies(*traced)) / rep.e2e["wall_s"];

    // Capacity: read-only open loop up the ladder, kLadderStepS per rate.
    double best = 0.0;
    std::string ladder;
    for (double rate : kLadder) {
      Phase step = schedule(st, rate, opt.tiny ? 0.2 : kLadderStepS,
                            opt.seed * 1000 + static_cast<std::uint64_t>(rate));
      drive(port, st, step, nullptr, Clock::now(), spans, -1);
      check_phase(rep, st, step, "ladder");
      const double p99_ms = 1e3 * percentile(latencies(step), 99);
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%s%.0f:%.3f", ladder.empty() ? "" : ",", rate, p99_ms);
      ladder += buf;
      if (p99_ms > kSloP99Ms) break;
      best = rate;
    }
    rep.info["ladder_rate_p99_ms"] = ladder;
    rep.layers["serving.rate_at_slo_rps"] = best;
  }
  daemon->stop();
}

}  // namespace rcast::perfbench
