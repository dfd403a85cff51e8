// Counting subscriber for the public TelemetryBus: one plain counter per
// event kind the per-layer metrics need. Single-queue runs only — sharded
// runs route telemetry through per-shard buses, so their counts come from
// the merged RunResult instead.
#pragma once

#include <array>
#include <cstdint>

#include "stats/telemetry.hpp"

namespace rcast::perfbench {

struct LayerTally final : stats::PhyEvents,
                          stats::MacEvents,
                          stats::PowerEvents,
                          routing::Observer {
  std::uint64_t phy_tx = 0;
  std::uint64_t phy_rx_ok = 0;
  std::array<std::uint64_t, 4> phy_rx_lost{};  // indexed by stats::PhyLoss
  std::uint64_t radio_transitions = 0;
  std::uint64_t atim_tx = 0;
  std::uint64_t atim_failed = 0;
  std::uint64_t overhear_commits = 0;
  std::uint64_t overhear_declines = 0;
  std::uint64_t mac_sleeps = 0;
  std::uint64_t data_tx_attempts = 0;
  std::uint64_t data_tx_failed = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t am_windows = 0;
  std::array<std::uint64_t, 5> control_tx{};  // indexed by routing::PacketType
  std::uint64_t forwarded = 0;

  void attach(stats::TelemetryBus& bus) {
    bus.subscribe_phy(this);
    bus.subscribe_mac(this);
    bus.subscribe_power(this);
    bus.subscribe_routing(this);
  }

  void add(const LayerTally& o) {
    phy_tx += o.phy_tx;
    phy_rx_ok += o.phy_rx_ok;
    for (std::size_t i = 0; i < phy_rx_lost.size(); ++i) {
      phy_rx_lost[i] += o.phy_rx_lost[i];
    }
    radio_transitions += o.radio_transitions;
    atim_tx += o.atim_tx;
    atim_failed += o.atim_failed;
    overhear_commits += o.overhear_commits;
    overhear_declines += o.overhear_declines;
    mac_sleeps += o.mac_sleeps;
    data_tx_attempts += o.data_tx_attempts;
    data_tx_failed += o.data_tx_failed;
    queue_drops += o.queue_drops;
    am_windows += o.am_windows;
    for (std::size_t i = 0; i < control_tx.size(); ++i) {
      control_tx[i] += o.control_tx[i];
    }
    forwarded += o.forwarded;
  }

  bool operator==(const LayerTally& o) const {
    return phy_tx == o.phy_tx && phy_rx_ok == o.phy_rx_ok &&
           phy_rx_lost == o.phy_rx_lost &&
           radio_transitions == o.radio_transitions && atim_tx == o.atim_tx &&
           atim_failed == o.atim_failed &&
           overhear_commits == o.overhear_commits &&
           overhear_declines == o.overhear_declines &&
           mac_sleeps == o.mac_sleeps &&
           data_tx_attempts == o.data_tx_attempts &&
           data_tx_failed == o.data_tx_failed &&
           queue_drops == o.queue_drops && am_windows == o.am_windows &&
           control_tx == o.control_tx && forwarded == o.forwarded;
  }

  std::uint64_t rx_lost_total() const {
    return phy_rx_lost[0] + phy_rx_lost[1] + phy_rx_lost[2] + phy_rx_lost[3];
  }
  std::uint64_t control(routing::PacketType t) const {
    return control_tx[static_cast<std::size_t>(t)];
  }

  // --- PhyEvents ------------------------------------------------------------
  void on_phy_tx(stats::NodeId, std::int64_t, sim::Time) override { ++phy_tx; }
  void on_phy_rx_ok(stats::NodeId, stats::NodeId, sim::Time) override {
    ++phy_rx_ok;
  }
  void on_phy_rx_lost(stats::NodeId, stats::PhyLoss loss, sim::Time) override {
    ++phy_rx_lost[static_cast<std::size_t>(loss)];
  }
  void on_radio_state(stats::NodeId, energy::RadioState, sim::Time) override {
    ++radio_transitions;
  }

  // --- MacEvents ------------------------------------------------------------
  void on_atim_tx(stats::NodeId, stats::NodeId, sim::Time) override {
    ++atim_tx;
  }
  void on_atim_failed(stats::NodeId, stats::NodeId, sim::Time) override {
    ++atim_failed;
  }
  void on_overhear_commit(stats::NodeId, stats::NodeId, mac::OverhearingMode,
                          sim::Time) override {
    ++overhear_commits;
  }
  void on_overhear_decline(stats::NodeId, stats::NodeId, mac::OverhearingMode,
                           sim::Time) override {
    ++overhear_declines;
  }
  void on_mac_sleep(stats::NodeId, sim::Time) override { ++mac_sleeps; }
  void on_data_tx_attempt(stats::NodeId, stats::NodeId, sim::Time) override {
    ++data_tx_attempts;
  }
  void on_data_tx_failed(stats::NodeId, stats::NodeId, sim::Time) override {
    ++data_tx_failed;
  }
  void on_queue_drop(stats::NodeId, sim::Time) override { ++queue_drops; }

  // --- PowerEvents ----------------------------------------------------------
  void on_am_window(stats::NodeId, sim::Time, sim::Time) override {
    ++am_windows;
  }

  // --- routing::Observer ----------------------------------------------------
  void on_control_transmit(routing::PacketType t, sim::Time) override {
    ++control_tx[static_cast<std::size_t>(t)];
  }
  void on_data_forwarded(stats::NodeId, sim::Time) override { ++forwarded; }
};

}  // namespace rcast::perfbench
