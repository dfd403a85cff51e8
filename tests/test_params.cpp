// Parameter-registry tests: completeness self-check, digest coverage of
// every registered field, per-param round-trips through the JSONL result
// store, and rejection of out-of-range / malformed / unknown inputs.
//
// Suites are named ParamRegistry* so CI's TSan leg can include them in its
// filter alongside the campaign runner suites.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "scenario/params.hpp"
#include "scenario/scenario.hpp"

namespace rcast::scenario {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("rcast_params_test_" + std::to_string(::getpid()) + "_" +
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

/// A legal value for `p` that differs from its default (after canonical
/// text round-trip, so "differs" means the digest and the store see the
/// difference too).
ParamValue nondefault_value(const Param& p) {
  const ParamValue def = p.default_value();
  switch (p.type) {
    case ParamType::kBool:
      return ParamValue::of(!def.b);
    case ParamType::kEnum:
      for (const auto t : p.tokens) {
        if (t != def.token) return ParamValue::of(t);
      }
      ADD_FAILURE() << p.name << ": single-token enum";
      return def;
    case ParamType::kUInt: {
      const std::uint64_t lo = static_cast<std::uint64_t>(p.min_value);
      if (static_cast<double>(def.u) + 1.0 <= p.max_value) {
        return ParamValue::of(def.u + 1);
      }
      if (def.u > lo) return ParamValue::of(def.u - 1);
      ADD_FAILURE() << p.name << ": degenerate uint range";
      return def;
    }
    case ParamType::kDouble: {
      const double candidates[] = {
          def.d + 1.0,
          def.d - 1.0,
          def.d / 2.0,
          std::isfinite(p.max_value) ? (def.d + p.max_value) / 2.0 : def.d,
          (def.d + p.min_value) / 2.0,
          p.min_value,
          p.max_value,
      };
      for (const double c : candidates) {
        if (!std::isfinite(c) || c < p.min_value || c > p.max_value) continue;
        const ParamValue v = ParamValue::of(c);
        if (!(v == def)) return v;
      }
      ADD_FAILURE() << p.name << ": no legal non-default value found";
      return def;
    }
  }
  return def;
}

TEST(ParamRegistry, SelfCheckIsClean) {
  const auto problems = registry_self_check();
  for (const auto& p : problems) ADD_FAILURE() << p;
  EXPECT_TRUE(problems.empty());
}

TEST(ParamRegistry, NamesAreUniqueAndLookupable) {
  std::set<std::string_view> seen;
  for (const Param& p : param_registry()) {
    EXPECT_TRUE(seen.insert(p.name).second) << "duplicate name " << p.name;
    const Param* found = find_param(p.name);
    ASSERT_NE(found, nullptr) << p.name;
    EXPECT_EQ(found->name, p.name);
  }
  EXPECT_EQ(find_param("no.such.param"), nullptr);
}

TEST(ParamRegistry, UnknownNameThrows) {
  ScenarioConfig cfg;
  EXPECT_THROW(set_param(cfg, "no.such.param", "1"), ParamError);
  EXPECT_THROW(param_text(cfg, "no.such.param"), ParamError);
}

TEST(ParamRegistry, EverySetterIsReadBackByItsGetter) {
  for (const Param& p : param_registry()) {
    ScenarioConfig cfg;
    const ParamValue want = nondefault_value(p);
    p.set(cfg, want);
    const ParamValue got = p.get(cfg);
    EXPECT_TRUE(got == want)
        << p.name << ": set " << want.text() << ", got back " << got.text();
    // And the canonical text parses back to the same value.
    EXPECT_TRUE(p.parse(got.text()) == got) << p.name;
  }
}

TEST(ParamRegistry, BoundsAndGarbageAreRejected) {
  ScenarioConfig cfg;
  // Below / above numeric bounds.
  EXPECT_THROW(set_param(cfg, "rate_pps", "-1"), ParamError);
  EXPECT_THROW(set_param(cfg, "flows", "0"), ParamError);
  EXPECT_THROW(set_param(cfg, "rcast.min_pr", "1.5"), ParamError);
  // Malformed numbers / trailing junk.
  EXPECT_THROW(set_param(cfg, "rate_pps", "fast"), ParamError);
  EXPECT_THROW(set_param(cfg, "rate_pps", "1.0x"), ParamError);
  EXPECT_THROW(set_param(cfg, "nodes", "-3"), ParamError);
  EXPECT_THROW(set_param(cfg, "nodes", "3.5"), ParamError);
  EXPECT_THROW(set_param(cfg, "mac.psm_enabled", "maybe"), ParamError);
  EXPECT_THROW(set_param(cfg, "routing.protocol", "olsr"), ParamError);
  // The pre-v3 key spellings are retired (stored records still read them).
  EXPECT_THROW(set_param(cfg, "scheme", "rcast"), ParamError);
  EXPECT_THROW(set_param(cfg, "routing", "dsr"), ParamError);
  // The failed sets must not have modified the config.
  EXPECT_EQ(campaign::config_digest(cfg),
            campaign::config_digest(ScenarioConfig{}));
}

TEST(ParamRegistry, EnumAliasesCanonicalize) {
  ScenarioConfig cfg;
  set_param(cfg, "power.scheme", "802.11");
  EXPECT_EQ(param_text(cfg, "power.scheme"), "80211");
  set_param(cfg, "power.scheme", "rcast-bcast");
  EXPECT_EQ(param_text(cfg, "power.scheme"), "RCAST-BC");
  set_param(cfg, "routing.protocol", "Aodv");
  EXPECT_EQ(param_text(cfg, "routing.protocol"), "AODV");
}

// --- Digest coverage --------------------------------------------------------

TEST(ParamRegistry, DigestCoversEveryInDigestParam) {
  const ScenarioConfig base;
  const std::string base_digest = campaign::config_digest(base);
  const std::string base_cell = campaign::config_cell_digest(base);
  for (const Param& p : param_registry()) {
    ScenarioConfig cfg;
    p.set(cfg, nondefault_value(p));
    const std::string digest = campaign::config_digest(cfg);
    if (p.in_digest) {
      EXPECT_NE(digest, base_digest)
          << p.name << " changed but the config digest did not";
    } else {
      EXPECT_EQ(digest, base_digest)
          << p.name << " is declared digest-exempt but changed the digest";
    }
    // The cell digest ignores exactly one extra param: the seed.
    const std::string cell = campaign::config_cell_digest(cfg);
    if (p.in_digest && p.name != "seed") {
      EXPECT_NE(cell, base_cell) << p.name;
    } else {
      EXPECT_EQ(cell, base_cell) << p.name;
    }
  }
}

TEST(ParamRegistry, DigestIsOrderIndependentOfHowValuesWereSet) {
  ScenarioConfig a, b;
  set_param(a, "mac.atim_window_ms", "25");
  set_param(a, "dsr.salvage", "false");
  set_param(b, "dsr.salvage", "false");
  set_param(b, "mac.atim_window_ms", "25");
  EXPECT_EQ(campaign::config_digest(a), campaign::config_digest(b));
}

// --- Result-store round-trips ----------------------------------------------

/// Serializes a job for `cfg` to a JSONL line, reads it back through
/// load_results, and returns the reconstructed record.
campaign::JobRecord store_round_trip(const ScenarioConfig& cfg) {
  campaign::Job job;
  job.index = 0;
  job.id = "round-trip";
  job.digest = campaign::config_digest(cfg);
  job.cfg = cfg;
  const RunResult r{};
  TempDir dir;
  const std::string path = dir.file("results.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << campaign::record_to_json(job, r, 1.0) << "\n";
  }
  const auto records = campaign::load_results(path);
  EXPECT_EQ(records.size(), 1u);
  if (records.empty()) return {};
  return records.front();
}

TEST(ParamRegistryStore, EveryParamRoundTripsThroughTheStore) {
  for (const Param& p : param_registry()) {
    ScenarioConfig cfg;
    const ParamValue want = nondefault_value(p);
    p.set(cfg, want);
    const campaign::JobRecord rec = store_round_trip(cfg);
    const ParamValue got = p.get(rec.cfg);
    EXPECT_TRUE(got == want)
        << p.name << ": wrote " << want.text() << ", loaded " << got.text();
    // Digest equality proves the WHOLE config survived, not just p.
    EXPECT_EQ(campaign::config_digest(rec.cfg), campaign::config_digest(cfg))
        << p.name;
    EXPECT_EQ(rec.cell, campaign::config_cell_digest(cfg)) << p.name;
  }
}

// The seed's registered range is the full u64; seeds a double cannot hold
// must come back exactly, or the record's config no longer matches its own
// cfg_digest.
TEST(ParamRegistryStore, SeedsBeyondDoublePrecisionRoundTrip) {
  for (const std::uint64_t seed :
       {std::uint64_t{9007199254740993u},
        std::numeric_limits<std::uint64_t>::max()}) {
    ScenarioConfig cfg;
    cfg.seed = seed;
    const campaign::JobRecord rec = store_round_trip(cfg);
    EXPECT_EQ(rec.cfg.seed, seed);
    EXPECT_EQ(rec.seed, seed);
    EXPECT_EQ(campaign::config_digest(rec.cfg), campaign::config_digest(cfg));
    EXPECT_EQ(rec.digest, campaign::config_digest(cfg));
  }
}

// A u64 config member holding a negative, fractional or out-of-range number
// is a corrupt record, not a value to cast.
TEST(ParamRegistryStore, BadUnsignedConfigValuesAreRejected) {
  ScenarioConfig cfg;
  campaign::Job job;
  job.digest = campaign::config_digest(cfg);
  job.cfg = cfg;
  const std::string line = campaign::record_to_json(job, RunResult{}, 1.0);
  const std::string key = "\"seed\":" + std::to_string(cfg.seed);
  const std::size_t at = line.find(key);
  ASSERT_NE(at, std::string::npos);
  for (const char* bad : {"-1", "2.5", "18446744073709551616"}) {
    std::string corrupt = line;
    corrupt.replace(at, key.size(), std::string("\"seed\":") + bad);
    EXPECT_ANY_THROW(campaign::parse_result_line(corrupt)) << bad;
  }
}

TEST(ParamRegistryStore, DerivedGridCoordinatesComeFromConfig) {
  ScenarioConfig cfg;
  set_param(cfg, "power.scheme", "odpm");
  set_param(cfg, "routing.protocol", "aodv");
  set_param(cfg, "nodes", "30");
  set_param(cfg, "flows", "5");
  set_param(cfg, "rate_pps", "4");
  set_param(cfg, "pause_s", "12.5");
  set_param(cfg, "duration_s", "90");
  set_param(cfg, "seed", "41");
  const campaign::JobRecord rec = store_round_trip(cfg);
  EXPECT_EQ(rec.scheme, Scheme::kOdpm);
  EXPECT_EQ(rec.routing, RoutingProtocol::kAodv);
  EXPECT_EQ(rec.nodes, 30u);
  EXPECT_EQ(rec.flows, 5u);
  EXPECT_EQ(rec.rate_pps, 4.0);
  EXPECT_EQ(rec.pause_s, 12.5);
  EXPECT_EQ(rec.duration_s, 90.0);
  EXPECT_EQ(rec.seed, 41u);
}

TEST(ParamRegistryStore, CorruptConfigValueIsRejected) {
  ScenarioConfig cfg;
  campaign::Job job;
  job.index = 0;
  job.id = "bad";
  job.digest = campaign::config_digest(cfg);
  job.cfg = cfg;
  std::string line = campaign::record_to_json(job, RunResult{}, 1.0);
  // Sabotage the routing token; the loader validates enums via the registry.
  const auto pos = line.find("\"routing.protocol\":\"DSR\"");
  ASSERT_NE(pos, std::string::npos);
  line.replace(pos, std::string("\"routing.protocol\":\"DSR\"").size(),
               "\"routing.protocol\":\"RIP\"");
  TempDir dir;
  const std::string path = dir.file("results.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << line << "\n";
  }
  EXPECT_THROW(campaign::load_results(path), campaign::ResultStoreError);
}

}  // namespace
}  // namespace rcast::scenario
