// Shared pieces of the end-to-end benchmark harness: options, the report
// every workload fills in, wall-clock spans around public entry points, and
// the small statistics the metrics need.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rcast::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke scale: every workload shrunk to a fraction of a second of work
  /// (self-test only; goldens are not checked at this scale).
  bool tiny = false;
  /// Overrides the workload's simulation seed (0 = the workload's own);
  /// results are then checked for determinism only and their digest printed.
  std::uint64_t sim_seed = 0;
  /// paper_rcast only: simulate the full 1125 s and compare the CSV row
  /// with results/full/paper_points.csv.
  bool full = false;
  std::string root;       // repository root (goldens, results/)
  std::string work_dir;   // scratch directory inside the checkout
  std::string daemon;     // rcast_campaignd binary
  std::string spans_out;  // traced runs write their spans here
};

/// Everything a workload reports. `e2e` holds the end-to-end metrics of an
/// untraced run, `layers` the per-layer metrics of a traced run.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::map<std::string, std::string> info;

  /// Counts one checked operation; a false `ok` is a failure with a reason.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(what);
    }
  }
};

/// Benchmark-side spans (name, start, end, parent) around calls into the
/// program's public entry points. Recorded only in traced runs, kept in
/// memory, written out once when the run ends.
class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  explicit Spans(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  int open(const std::string& name, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, seconds_between(t0_, Clock::now()), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[id].end_s = seconds_between(t0_, Clock::now());
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes {"spans":[...]} with each span's self time (duration minus the
  /// part covered by its children). Returns false if the file can't be
  /// written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Spans& s, const std::string& name, int parent = -1)
      : spans_(s), id_(s.open(name, parent)) {}
  ~ScopedSpan() { spans_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Spans& spans_;
  int id_;
};

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);

/// FNV-1a 64 over `text`.
std::uint64_t fnv1a(const std::string& text);
/// 16 lower-case hex digits (the repository's digest rendering).
std::string hex16(std::uint64_t v);

/// Reads a whole file; empty string if it can't be read.
std::string read_file(const std::string& path);

/// Process CPU time (user + system) of this process, in seconds.
double process_cpu_seconds();

// The four workloads. Each fills `rep` (throws only on set-up failure).
void run_paper_rcast(const Options& opt, Report& rep, Spans& spans);
void run_fig6_campaign(const Options& opt, Report& rep, Spans& spans);
void run_shard_100k(const Options& opt, Report& rep, Spans& spans);
void run_campaignd_query(const Options& opt, Report& rep, Spans& spans);

}  // namespace rcast::perfbench
