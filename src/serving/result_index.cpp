#include "serving/result_index.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "scenario/policy_registry.hpp"
#include "sim/time.hpp"

namespace rcast::serving {

namespace {

constexpr char kMagic[8] = {'r', 'c', 'a', 's', 't', 'i', 'd', 'x'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kRecordSize = 80;
constexpr std::size_t kHeaderSize = 16;

void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void put_f64(unsigned char* p, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(p, bits);
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

double get_f64(const unsigned char* p) {
  const std::uint64_t bits = get_u64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

std::uint64_t digest_to_u64(std::string_view hex) {
  if (hex.size() != 16) throw IndexError("digest must be 16 hex digits");
  std::uint64_t v = 0;
  for (const char c : hex) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint64_t>(c - 'A' + 10);
    else throw IndexError("digest must be 16 hex digits");
  }
  return v;
}

void encode_entry(const IndexEntry& e, unsigned char out[80]) {
  std::memset(out, 0, kRecordSize);
  put_u64(out + 0, e.job);
  put_u64(out + 8, e.offset);
  put_u64(out + 16, e.cfg_digest);
  put_u64(out + 24, e.cell_digest);
  put_u32(out + 32, e.length);
  out[36] = e.scheme;
  out[37] = e.routing;
  out[38] = e.mobility;
  out[39] = e.traffic;
  put_u32(out + 40, e.nodes);
  put_u32(out + 44, e.flows);
  put_f64(out + 48, e.rate_pps);
  put_f64(out + 56, e.pause_s);
  put_f64(out + 64, e.duration_s);
  put_u64(out + 72, e.seed);
}

IndexEntry decode_entry(const unsigned char in[80]) {
  IndexEntry e;
  e.job = get_u64(in + 0);
  e.offset = get_u64(in + 8);
  e.cfg_digest = get_u64(in + 16);
  e.cell_digest = get_u64(in + 24);
  e.length = get_u32(in + 32);
  e.scheme = in[36];
  e.routing = in[37];
  e.mobility = in[38];
  e.traffic = in[39];
  e.nodes = get_u32(in + 40);
  e.flows = get_u32(in + 44);
  e.rate_pps = get_f64(in + 48);
  e.pause_s = get_f64(in + 56);
  e.duration_s = get_f64(in + 64);
  e.seed = get_u64(in + 72);
  return e;
}

IndexEntry make_index_entry(std::uint64_t job, std::string_view cfg_digest,
                            std::string_view cell_digest,
                            const scenario::ScenarioConfig& cfg,
                            const campaign::AppendExtent& extent) {
  IndexEntry e;
  e.job = job;
  e.offset = extent.offset;
  e.cfg_digest = digest_to_u64(cfg_digest);
  e.cell_digest = digest_to_u64(cell_digest);
  e.length = extent.length;
  e.scheme = static_cast<std::uint8_t>(cfg.scheme);
  e.routing = static_cast<std::uint8_t>(cfg.routing);
  e.mobility = static_cast<std::uint8_t>(
      scenario::mobility_models().index_of(cfg.mobility_model));
  e.traffic = static_cast<std::uint8_t>(
      scenario::traffic_patterns().index_of(cfg.traffic_pattern));
  e.nodes = static_cast<std::uint32_t>(cfg.num_nodes);
  e.flows = static_cast<std::uint32_t>(cfg.num_flows);
  e.rate_pps = cfg.rate_pps;
  e.pause_s = sim::to_seconds(cfg.pause);
  e.duration_s = sim::to_seconds(cfg.duration);
  e.seed = cfg.seed;
  return e;
}

ResultIndex ResultIndex::open(const std::string& jsonl_path) {
  ResultIndex idx;
  idx.jsonl_path_ = jsonl_path;
  idx.idx_path_ = sidecar_path(jsonl_path);

  // Adopt an existing sidecar. Any defect — bad magic, wrong version/record
  // size, or entries past the current JSONL size (the JSONL was truncated or
  // replaced) — falls back to a rebuild: the sidecar is derived data, never
  // authoritative.
  if (!idx.read_sidecar()) {
    idx.entries_.clear();
    idx.indexed_bytes_ = 0;
    std::error_code ec;
    std::filesystem::remove(idx.idx_path_, ec);
    std::ofstream out(idx.idx_path_, std::ios::binary | std::ios::trunc);
    if (!out) throw IndexError("cannot create index " + idx.idx_path_);
    unsigned char header[kHeaderSize];
    std::memcpy(header, kMagic, sizeof(kMagic));
    put_u32(header + 8, kVersion);
    put_u32(header + 12, kRecordSize);
    out.write(reinterpret_cast<const char*>(header), kHeaderSize);
    if (!out) throw IndexError("cannot write index header " + idx.idx_path_);
  } else {
    // Drop any torn trailing record so appends start on a record boundary.
    std::error_code ec;
    const auto size = std::filesystem::file_size(idx.idx_path_, ec);
    if (!ec) {
      const std::uint64_t want =
          kHeaderSize + idx.entries_.size() * std::uint64_t{kRecordSize};
      if (size > want) std::filesystem::resize_file(idx.idx_path_, want, ec);
    }
  }

  const std::size_t first_new = idx.entries_.size();
  idx.index_new_lines();
  idx.append_to_sidecar(first_new);
  return idx;
}

ResultIndex ResultIndex::rebuild(const std::string& jsonl_path) {
  std::error_code ec;
  std::filesystem::remove(sidecar_path(jsonl_path), ec);
  return open(jsonl_path);
}

std::size_t ResultIndex::refresh() {
  const std::size_t before = entries_.size();
  read_sidecar();
  index_new_lines();
  return entries_.size() - before;
}

bool ResultIndex::read_sidecar() {
  std::ifstream in(idx_path_, std::ios::binary);
  unsigned char header[kHeaderSize];
  if (!in.read(reinterpret_cast<char*>(header), kHeaderSize) ||
      std::memcmp(header, kMagic, sizeof(kMagic)) != 0 ||
      get_u32(header + 8) != kVersion || get_u32(header + 12) != kRecordSize) {
    return false;
  }
  in.seekg(static_cast<std::streamoff>(
      kHeaderSize + entries_.size() * std::uint64_t{kRecordSize}));
  std::error_code ec;
  const auto jsonl_size = std::filesystem::file_size(jsonl_path_, ec);
  const std::uint64_t limit = ec ? 0 : jsonl_size;
  unsigned char rec[kRecordSize];
  // A torn trailing record (short read) is expected after a crash or while
  // the writer is mid-append; it is simply not adopted.
  while (in.read(reinterpret_cast<char*>(rec), kRecordSize)) {
    const IndexEntry e = decode_entry(rec);
    // Offsets must be monotone and inside the JSONL (blank lines can leave
    // gaps); anything else is stale or corrupt. Bounds-check without
    // `offset + length` so a corrupt offset near 2^64 cannot wrap past the
    // limit.
    if (e.offset < indexed_bytes_ || e.offset > limit ||
        std::uint64_t{e.length} + 1 > limit - e.offset) {
      return false;
    }
    entries_.push_back(e);
    indexed_bytes_ = e.offset + e.length + 1;
  }
  return true;
}

void ResultIndex::append(const IndexEntry& e) {
  if (e.offset < indexed_bytes_) {
    throw IndexError("index append out of order (offset " +
                     std::to_string(e.offset) + ", already indexed through " +
                     std::to_string(indexed_bytes_) + ")");
  }
  entries_.push_back(e);
  indexed_bytes_ = e.offset + e.length + 1;
  append_to_sidecar(entries_.size() - 1);
}

void ResultIndex::append_to_sidecar(std::size_t first) {
  if (first >= entries_.size()) return;
  std::string batch((entries_.size() - first) * kRecordSize, '\0');
  for (std::size_t i = first; i < entries_.size(); ++i) {
    encode_entry(entries_[i], reinterpret_cast<unsigned char*>(
                                  &batch[(i - first) * kRecordSize]));
  }
  std::ofstream out(idx_path_, std::ios::binary | std::ios::app);
  if (!out) throw IndexError("cannot append to index " + idx_path_);
  out.write(batch.data(), static_cast<std::streamsize>(batch.size()));
  if (!out) throw IndexError("index write failed: " + idx_path_);
}

void ResultIndex::index_new_lines() {
  std::ifstream in(jsonl_path_, std::ios::binary);
  if (!in) return;  // no JSONL yet (fresh campaign): an empty index is correct
  in.seekg(static_cast<std::streamoff>(indexed_bytes_));
  std::string line;
  while (std::getline(in, line)) {
    if (in.eof()) break;  // torn trailing line: wait for the newline
    if (!line.empty()) {
      const campaign::JobRecord rec = campaign::parse_result_line(line);
      entries_.push_back(make_index_entry(
          rec.job, rec.digest, rec.cell, rec.cfg,
          campaign::AppendExtent{indexed_bytes_,
                                 static_cast<std::uint32_t>(line.size())}));
    }
    // Blank lines index nothing but still advance indexed_bytes_, so offset
    // bookkeeping matches the JSONL exactly.
    indexed_bytes_ += line.size() + 1;
  }
}

}  // namespace rcast::serving
