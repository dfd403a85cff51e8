// End-to-end tests of the rcast_campaignd binary: sharded runs whose merged
// export is byte-identical to the campaign library's single-queue run,
// resume after interruption and after kill -9, workers that die with a
// killed daemon, status against the wrong manifest, trace routing, and the
// reindex subcommand's byte-identical sidecar rebuild. These drive the real
// executable (path injected by CMake) over a tiny manifest.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "campaign/runner.hpp"

namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("rcast_campaignd_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs a shell command, returning its exit code (-1 on system() failure).
int run(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : 128;
}

/// The tiny e2e manifest; `extra` appends manifest lines.
std::string write_manifest(const TempDir& dir, const std::string& extra = "") {
  const std::string path = dir.file("m.txt");
  std::ofstream out(path);
  out << extra;
  out << "name = e2e\n"
         "schemes = rcast, odpm\n"
         "routings = dsr\n"
         "rates_pps = 1.0\n"
         "pauses_s = 0\n"
         "nodes = 12\n"
         "flows = 3\n"
         "duration_s = 6\n"
         "seeds = 3\n"
         "world_m = 600x300\n";
  return path;
}

const std::string kDaemon = RCAST_CAMPAIGND_PATH;

/// The reference export for `manifest`, built in-process by the campaign
/// library: one work queue, one journal, one results file. The daemon's
/// shard path is compared against this, never against itself.
std::string reference_csv(const TempDir& dir, const std::string& manifest) {
  rcast::campaign::RunnerOptions opt;
  opt.journal_path = dir.file("single.journal.log");
  opt.results_path = dir.file("single.results.jsonl");
  opt.threads = 2;
  const rcast::campaign::CampaignResult r = rcast::campaign::run_campaign(
      rcast::campaign::parse_manifest_file(manifest), opt);
  EXPECT_TRUE(r.all_done());
  return rcast::campaign::export_aggregate_csv({opt.results_path});
}

/// Pids of the processes whose argv contains every one of
/// `args` as a whole argument.
std::vector<pid_t> processes_with_args(const std::vector<std::string>& args) {
  std::vector<pid_t> pids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    const std::string cmdline = read_file(entry.path().string() + "/cmdline");
    std::vector<std::string> argv;
    std::istringstream in(cmdline);
    for (std::string a; std::getline(in, a, '\0');) argv.push_back(a);
    if (std::all_of(args.begin(), args.end(), [&](const std::string& a) {
          return std::find(argv.begin(), argv.end(), a) != argv.end();
        })) {
      pids.push_back(static_cast<pid_t>(std::stol(name)));
    }
  }
  return pids;
}

/// True once `pid` has exited: reaped, or a zombie awaiting its reaper.
bool process_gone(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  const auto paren = stat.rfind(')');
  return paren == std::string::npos || paren + 2 >= stat.size() ||
         stat[paren + 2] == 'Z';
}

TEST(Campaignd, ShardedExportByteIdenticalToSingleProcess) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string reference = reference_csv(dir, manifest);
  ASSERT_FALSE(reference.empty());

  const std::string out_dir = dir.file("sharded");
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --shards=3 --threads=1 --quiet 2>/dev/null"),
            0);
  const std::string csv = dir.file("sharded.csv");
  ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --csv=" + csv + " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(csv), reference);

  // Every shard built its index sidecar incrementally during the run.
  for (int k = 0; k < 3; ++k) {
    EXPECT_TRUE(fs::exists(out_dir + "/results.shard" + std::to_string(k) +
                           ".jsonl.idx"));
  }
}

TEST(Campaignd, InterruptedRunResumesByteIdentical) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string reference = reference_csv(dir, manifest);

  const std::string out_dir = dir.file("interrupted");
  // --max-jobs=1: each worker stops after one new job — a deterministic
  // mid-campaign interruption.
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --shards=2 --threads=1 --max-jobs=1 --quiet 2>/dev/null"),
            0);
  ASSERT_EQ(run(kDaemon + " resume " + manifest + " --out=" + out_dir +
                " --shards=2 --threads=1 --quiet 2>/dev/null"),
            0);
  const std::string csv = dir.file("resumed.csv");
  ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --csv=" + csv + " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(csv), reference);
}

TEST(Campaignd, KilledWorkerResumesByteIdentical) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string reference = reference_csv(dir, manifest);

  // Start one worker shard directly in the background, kill -9 it as soon
  // as its journal shows progress, then resume the whole fleet.
  const std::string out_dir = dir.file("killed");
  fs::create_directories(out_dir);
  const std::string pid_file = dir.file("worker.pid");
  ASSERT_EQ(run(kDaemon + " worker " + manifest + " --out=" + out_dir +
                " --shards=1 --shard=0 --threads=1 --quiet 2>/dev/null & "
                "echo $! > " + pid_file),
            0);

  const std::string journal = out_dir + "/journal.shard0.log";
  for (int i = 0; i < 200; ++i) {  // wait for >=1 committed job (<=10 s)
    std::ifstream in(journal);
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) ++lines;
    if (lines >= 2) break;  // header + at least one commit
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  run("kill -9 $(cat " + pid_file + ") 2>/dev/null; wait 2>/dev/null");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  ASSERT_EQ(run(kDaemon + " resume " + manifest + " --out=" + out_dir +
                " --shards=1 --threads=1 --quiet 2>/dev/null"),
            0);
  const std::string csv = dir.file("killed.csv");
  ASSERT_EQ(run(kDaemon + " export " + manifest + " --out=" + out_dir +
                " --csv=" + csv + " 2>/dev/null"),
            0);
  EXPECT_EQ(read_file(csv), reference);
}

// The rebuild from the JSONL alone must reproduce the incrementally written
// sidecar byte for byte — including seeds past 2^53, which a double-typed
// JSON read would round.
TEST(Campaignd, ReindexRebuildsByteIdenticalSidecar) {
  for (const std::string extra : {"", "seed_base = 9007199254740993\n"}) {
    SCOPED_TRACE(extra);
    TempDir dir;
    const std::string manifest = write_manifest(dir, extra);
    const std::string out_dir = dir.file("reindex");
    ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                  " --shards=2 --threads=1 --quiet 2>/dev/null"),
              0);

    const std::string idx0 = out_dir + "/results.shard0.jsonl.idx";
    ASSERT_TRUE(fs::exists(idx0));
    const std::string original = read_file(idx0);
    ASSERT_FALSE(original.empty());

    // Deleted sidecar.
    fs::remove(idx0);
    ASSERT_EQ(run(kDaemon + " reindex " + manifest + " --out=" + out_dir +
                  " >/dev/null 2>&1"),
              0);
    EXPECT_EQ(read_file(idx0), original);

    // Corrupted sidecar.
    {
      std::ofstream out(idx0, std::ios::binary | std::ios::trunc);
      out << "garbage that is definitely not an index";
    }
    ASSERT_EQ(run(kDaemon + " reindex " + manifest + " --out=" + out_dir +
                  " >/dev/null 2>&1"),
              0);
    EXPECT_EQ(read_file(idx0), original);
  }
}

TEST(Campaignd, WorkerDiesWithKilledDaemon) {
  TempDir dir;
  // Enough jobs that the worker is still busy when the daemon dies.
  const std::string manifest = dir.file("long.txt");
  std::ofstream(manifest) << "name = orphan\n"
                             "schemes = rcast\n"
                             "rates_pps = 1.0\n"
                             "pauses_s = 0\n"
                             "nodes = 12\n"
                             "flows = 3\n"
                             "duration_s = 3000\n"
                             "seeds = 100\n"
                             "world_m = 600x300\n";
  const std::string out_dir = dir.file("orphan");
  const std::string pid_file = dir.file("daemon.pid");
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --threads=1 --quiet >/dev/null 2>&1 & echo $! > " +
                pid_file),
            0);

  std::vector<pid_t> workers;
  for (int i = 0; i < 200 && workers.empty(); ++i) {  // <= 10 s
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    workers = processes_with_args({"worker", "--out=" + out_dir});
  }
  ASSERT_EQ(workers.size(), 1u);
  run("kill -9 $(cat " + pid_file + ") 2>/dev/null");

  bool gone = false;
  for (int i = 0; i < 100 && !gone; ++i) {  // <= 5 s
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gone = process_gone(workers[0]);
  }
  if (!gone) ::kill(workers[0], SIGKILL);  // don't leak it past the test
  EXPECT_TRUE(gone) << "worker " << workers[0] << " outlived its daemon";
}

TEST(Campaignd, StatusRejectsJournalsOfAnotherCampaign) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string out_dir = dir.file("mismatch");
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --shards=2 --threads=1 --quiet 2>/dev/null"),
            0);
  // A --set the run never used changes every job digest: these journals
  // belong to a different campaign and must not be counted as its progress.
  const std::string out_file = dir.file("status.txt");
  EXPECT_EQ(run(kDaemon + " status " + manifest + " --out=" + out_dir +
                " --set mac.atim_window_ms=30 > " + out_file + " 2>/dev/null"),
            1);
  const std::string status = read_file(out_file);
  EXPECT_NE(status.find("journal belongs to a different campaign"),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("total: 0/6 done"), std::string::npos) << status;
}

TEST(Campaignd, TraceGoesToTheWorkerOwningTheJob) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  // Job 1 belongs to shard 1 of 2; shard 0 never sees it.
  const std::string id = rcast::campaign::expand(
      rcast::campaign::parse_manifest_file(manifest))[1].id;
  const std::string trace = dir.file("trace.csv");
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + dir.file("traced") +
                " --shards=2 --threads=1 --quiet --trace=" + trace +
                " '--trace-job=" + id + "' 2>/dev/null"),
            0);
  EXPECT_FALSE(read_file(trace).empty());

  EXPECT_EQ(run(kDaemon + " run " + manifest + " --out=" + dir.file("bad") +
                " --trace=" + trace + " --trace-job=NO/SUCH/JOB 2>/dev/null"),
            2);
}

TEST(Campaignd, StatusReportsShardProgress) {
  TempDir dir;
  const std::string manifest = write_manifest(dir);
  const std::string out_dir = dir.file("status");
  ASSERT_EQ(run(kDaemon + " run " + manifest + " --out=" + out_dir +
                " --shards=2 --threads=1 --quiet 2>/dev/null"),
            0);
  const std::string out_file = dir.file("status.txt");
  ASSERT_EQ(run(kDaemon + " status " + manifest + " --out=" + out_dir +
                " > " + out_file + " 2>/dev/null"),
            0);
  const std::string status = read_file(out_file);
  EXPECT_NE(status.find("campaign 'e2e': 6 jobs, 2 shard journal(s)"),
            std::string::npos)
      << status;
  EXPECT_NE(status.find("total: 6/6 done (6 ok, 0 failed)"),
            std::string::npos)
      << status;
}

}  // namespace
