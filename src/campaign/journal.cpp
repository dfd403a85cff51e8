#include "campaign/journal.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif

#include "util/flags.hpp"

namespace rcast::campaign {

namespace {

constexpr const char* kMagic = "rcast-campaign-journal";
constexpr const char* kVersion = "v1";

void fsync_file(std::FILE* f) {
  std::fflush(f);
#ifdef _WIN32
  _commit(_fileno(f));
#else
  ::fsync(fileno(f));
#endif
}

// Journal fields never contain spaces except the trailing quoted error, so
// a line parses as whitespace-split tokens of key=value.
std::string sanitize_error(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\n' || c == '\r') {
      out.push_back(' ');
    } else if (c == '"') {
      out.push_back('\'');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string token_value(const std::string& token, const char* key) {
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) return "";
  return token.substr(prefix.size());
}

// Parses every complete ('\n'-terminated) line of `content` into `view`;
// anything after the last one is a torn tail the caller may truncate (open)
// or ignore (load).
void parse_journal(const std::string& path, const std::string& content,
                   JournalView& view) {
  bool have_header = false;
  std::size_t pos = 0;
  while (pos < content.size()) {
    const auto nl = content.find('\n', pos);
    if (nl == std::string::npos) break;  // torn trailing line
    const std::string line = content.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;

    std::istringstream tok(line);
    std::string first;
    tok >> first;
    if (!have_header) {
      if (first != kMagic) {
        throw JournalError(path + ": not a campaign journal");
      }
      std::string version, digest_tok, jobs_tok;
      tok >> version >> digest_tok >> jobs_tok;
      if (version != kVersion) {
        throw JournalError(path + ": unsupported journal version '" + version + "'");
      }
      view.campaign_digest = token_value(digest_tok, "campaign");
      const std::string jobs_s = token_value(jobs_tok, "jobs");
      const auto jobs = Flags::parse_u64(jobs_s);
      if (!jobs) throw JournalError(path + ": malformed journal job count");
      view.job_count = static_cast<std::size_t>(*jobs);
      have_header = true;
      continue;
    }

    if (first != "done") continue;  // future record kinds: skip, don't choke
    JournalEntry e;
    bool saw_job = false, saw_status = false;
    std::string t;
    while (tok >> t) {
      if (auto v = token_value(t, "job"); !v.empty()) {
        const auto u = Flags::parse_u64(v);
        if (!u) throw JournalError(path + ": bad job index in '" + line + "'");
        e.job = static_cast<std::size_t>(*u);
        saw_job = true;
      } else if (auto c = token_value(t, "cfg"); !c.empty()) {
        e.digest = c;
      } else if (auto s = token_value(t, "status"); !s.empty()) {
        e.ok = (s == "ok");
        saw_status = true;
      } else if (auto w = token_value(t, "wall_ms"); !w.empty()) {
        e.wall_ms = Flags::parse_double(w).value_or(0.0);
      } else if (t.rfind("error=", 0) == 0) {
        // The error is the quoted remainder of the line.
        const auto q = line.find("error=\"");
        if (q != std::string::npos) {
          const auto start = q + 7;
          const auto end = line.rfind('"');
          if (end > start) e.error = line.substr(start, end - start);
        }
        break;
      }
    }
    if (!saw_job || !saw_status) {
      throw JournalError(path + ": malformed journal line '" + line + "'");
    }
    if (e.job >= view.job_count) {
      throw JournalError(path + ": journal entry for out-of-range job " +
                         std::to_string(e.job));
    }
    view.entries[e.job] = std::move(e);
  }
}

std::string read_file(const std::string& path, bool& exists) {
  std::ifstream in(path, std::ios::binary);
  exists = static_cast<bool>(in);
  if (!exists) return "";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

void drop_torn_tail(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return;
  const std::uint64_t size = static_cast<std::uint64_t>(in.tellg());
  std::uint64_t keep = size;  // bytes through the last '\n'
  char buf[4096];
  while (keep > 0) {
    const std::uint64_t n = std::min<std::uint64_t>(keep, sizeof(buf));
    in.seekg(static_cast<std::streamoff>(keep - n));
    if (!in.read(buf, static_cast<std::streamsize>(n))) {
      throw std::filesystem::filesystem_error(
          "cannot read torn tail", path,
          std::make_error_code(std::errc::io_error));
    }
    std::uint64_t i = n;
    while (i > 0 && buf[i - 1] != '\n') --i;
    keep -= n - i;
    if (i > 0) break;
  }
  if (keep < size) std::filesystem::resize_file(path, keep);
}

JournalView Journal::load(const std::string& path) {
  bool exists = false;
  const std::string content = read_file(path, exists);
  if (!exists) throw JournalError(path + ": no such journal");
  JournalView view;
  parse_journal(path, content, view);
  if (view.campaign_digest.empty()) {
    throw JournalError(path + ": journal has no header (yet)");
  }
  return view;
}

Journal Journal::open(const std::string& path,
                      const std::string& campaign_digest,
                      std::size_t job_count) {
  Journal j;

  // Read whatever already exists. Only lines terminated by '\n' count; a
  // torn final line from a crash is silently dropped.
  bool exists = false;
  const std::string content = read_file(path, exists);

  JournalView view;
  parse_journal(path, content, view);
  const bool have_header = !view.campaign_digest.empty();
  if (have_header) {
    if (view.campaign_digest != campaign_digest) {
      throw JournalError(path + ": journal belongs to a different campaign (digest " +
                         view.campaign_digest + ", expected " + campaign_digest + ")");
    }
    if (view.job_count != job_count) {
      throw JournalError(path + ": journal job count mismatch");
    }
  }
  j.entries_ = std::move(view.entries);

  // Drop torn trailing bytes so the next append starts on a fresh line
  // instead of merging with a half-written record.
  if (exists) drop_torn_tail(path);

  j.f_ = std::fopen(path.c_str(), "ab");
  if (!j.f_) throw JournalError("cannot open journal for append: " + path);
  if (!have_header) {
    std::ostringstream os;
    os << kMagic << ' ' << kVersion << " campaign=" << campaign_digest
       << " jobs=" << job_count << '\n';
    const std::string header = os.str();
    std::fwrite(header.data(), 1, header.size(), j.f_);
    fsync_file(j.f_);
  }
  return j;
}

Journal::Journal(Journal&& other) noexcept
    : f_(other.f_),
      entries_(std::move(other.entries_)),
      sync_every_(other.sync_every_),
      unsynced_(other.unsynced_) {
  other.f_ = nullptr;
  other.unsynced_ = 0;
}

Journal::~Journal() { close(); }

void Journal::close() {
  if (f_) {
    if (unsynced_ > 0) fsync_file(f_);
    unsynced_ = 0;
    std::fclose(f_);
    f_ = nullptr;
  }
}

void Journal::set_sync_every(std::uint64_t n) {
  if (n == 0) throw JournalError("journal sync_every must be >= 1");
  sync_every_ = n;
}

void Journal::sync() {
  if (!f_) return;
  fsync_file(f_);
  unsynced_ = 0;
}

void Journal::append(const JournalEntry& e) {
  if (!f_) throw JournalError("journal is closed");
  std::ostringstream os;
  os << "done job=" << e.job << " cfg=" << e.digest
     << " status=" << (e.ok ? "ok" : "failed") << " wall_ms=" << e.wall_ms;
  if (!e.ok) os << " error=\"" << sanitize_error(e.error) << '"';
  os << '\n';
  const std::string line = os.str();
  if (std::fwrite(line.data(), 1, line.size(), f_) != line.size()) {
    throw JournalError("journal write failed");
  }
  // Always push the line to the OS so concurrent readers (the serving
  // daemon) observe commits promptly even between batched fsyncs; a crash
  // can then only tear the trailing line, which open() repairs.
  std::fflush(f_);
  if (++unsynced_ >= sync_every_) {
    fsync_file(f_);
    unsynced_ = 0;
  }
}

}  // namespace rcast::campaign
