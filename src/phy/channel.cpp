#include "phy/channel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "phy/phy.hpp"
#include "util/assert.hpp"

namespace rcast::phy {

namespace {

// Propagation delay: distance / c. In nanoseconds, c ≈ 0.3 m/ns.
sim::Time propagation_delay(double meters) {
  return static_cast<sim::Time>(meters / 0.299792458);
}

// Expired in-flight entries are harmless to keep around (their busy window
// lies in the past — see the horizon note in add_in_flight), so pruning only
// has to bound each cell, not keep it exact: sweep a cell when it grows past
// the watermark.
constexpr std::size_t kCellPruneWatermark = 32;

}  // namespace

Channel::Channel(sim::Simulator& simulator,
                 mobility::MobilityManager& mobility,
                 const ChannelConfig& config)
    : sim_(simulator),
      mobility_(mobility),
      cfg_(config),
      sharded_(simulator.sharded()) {
  RCAST_REQUIRE(cfg_.tx_range_m > 0.0);
  RCAST_REQUIRE(cfg_.cs_range_m >= cfg_.tx_range_m);
  RCAST_REQUIRE(cfg_.bitrate_bps > 0);
  capture_ratio_ =
      cfg_.capture_db > 0.0 ? std::pow(10.0, cfg_.capture_db / 40.0) : 0.0;

  // Carrier-sense cells sized to the cs range: a disc of that radius always
  // fits in <= 3x3 cells. Same geometry/clamping as geo::GridIndex so
  // positions slightly outside the world land in edge cells.
  const geo::Rect& world = mobility.world();
  cs_cell_size_ = cfg_.cs_range_m;
  cs_cols_ = static_cast<std::uint32_t>(
                 std::ceil(world.width / cs_cell_size_)) + 1;
  cs_rows_ = static_cast<std::uint32_t>(
                 std::ceil(world.height / cs_cell_size_)) + 1;
  max_prop_ = propagation_delay(cfg_.cs_range_m);

  state_.resize(simulator.shard_count());
  for (std::size_t k = 0; k < state_.size(); ++k) {
    state_[k].cs_cells.resize(static_cast<std::size_t>(cs_cols_) * cs_rows_);
    // Disjoint per-shard id streams (ids only need to be unique per
    // receiving Phy, but disjoint streams keep them globally unique and
    // run-for-run deterministic regardless of worker interleaving).
    state_[k].next_arrival_id = static_cast<std::uint64_t>(k) << 56;
    // Open-group table: one slot per possible integer propagation delay
    // within cs range (~1.8k entries); epoch stamps make it pass-scoped
    // without per-transmission clearing.
    state_[k].open_groups.resize(static_cast<std::size_t>(max_prop_) + 1);
  }
}

void Channel::attach(Phy* phy) {
  RCAST_REQUIRE(phy != nullptr);
  const NodeId id = phy->id();
  if (id >= phys_.size()) phys_.resize(id + 1, nullptr);
  RCAST_REQUIRE_MSG(phys_[id] == nullptr, "duplicate phy for node");
  phys_[id] = phy;
}

void Channel::set_shard_map(std::vector<std::uint32_t> node_shard) {
  RCAST_REQUIRE(sharded_);
  for (const std::uint32_t s : node_shard) {
    RCAST_REQUIRE(s < state_.size());
  }
  node_shard_ = std::move(node_shard);
}

std::uint32_t Channel::cs_cell_of(geo::Vec2 p) const {
  const geo::Rect& world = mobility_.world();
  const double cx = std::clamp(p.x, 0.0, world.width);
  const double cy = std::clamp(p.y, 0.0, world.height);
  const auto col = static_cast<std::uint32_t>(cx / cs_cell_size_);
  const auto row = static_cast<std::uint32_t>(cy / cs_cell_size_);
  return row * cs_cols_ + col;
}

void Channel::add_in_flight(ShardState& st, geo::Vec2 tx_pos, sim::Time end) {
  CsCell& cell = st.cs_cells[cs_cell_of(tx_pos)];
  if (cell.entries.size() >= kCellPruneWatermark) {
    // An entry can only still matter while end + propagation >= now, and
    // propagation within cs range is bounded by max_prop_; anything older
    // produced a busy window entirely in the past.
    const sim::Time horizon = sim_.now() - (max_prop_ + sim::kMicrosecond);
    std::erase_if(cell.entries,
                  [horizon](const InFlight& f) { return f.end < horizon; });
    cell.max_end = 0;
    for (const InFlight& f : cell.entries) {
      cell.max_end = std::max(cell.max_end, f.end);
    }
  }
  cell.entries.push_back(InFlight{tx_pos, end});
  cell.max_end = std::max(cell.max_end, end);
}

namespace {
/// Log2 bucket for the arrival-group size histogram (size >= 1).
std::size_t group_size_bucket(std::size_t n) {
  return std::min<std::size_t>(
      static_cast<std::size_t>(std::bit_width(n)) - 1, 7);
}
}  // namespace

void Channel::fire_group_start(ArrivalGroup* g) {
  ShardState& st = local_state();
  ++st.stats.arrival_group_fires;
  st.stats.arrival_member_fires += g->recs.size();
  deliver_arrival_group_start(*g);
}

void Channel::fire_group_end(ArrivalGroup* g) {
  ShardState& st = local_state();
  ++st.stats.arrival_group_fires;
  st.stats.arrival_member_fires += g->recs.size();
  deliver_arrival_group_end(*g);
  st.group_pool.release(g);
}

void Channel::fire_remote_group_end(ArrivalGroup* g) {
  // Cross-shard groups are shared_ptr-owned by their two closures; no pool
  // release — the last closure destroyed frees the group on this thread.
  ShardState& st = local_state();
  ++st.stats.arrival_group_fires;
  st.stats.arrival_member_fires += g->recs.size();
  deliver_arrival_group_end(*g);
}

void Channel::transmit(FramePtr frame, sim::Time duration) {
  RCAST_REQUIRE(frame != nullptr);
  RCAST_REQUIRE(duration > 0);

  const geo::Vec2 tx_pos = mobility_.position(frame->tx);
  const sim::Time now = sim_.now();
  const std::size_t here = sim_.current_shard();
  ShardState& local = state_[here];

  ++local.stats.frames_transmitted;
  local.stats.bits_transmitted += static_cast<std::uint64_t>(frame->bits);

  add_in_flight(local, tx_pos, now + duration);

  // Fan out to every radio that senses the frame, straight from the spatial
  // query (no intermediate result list): the callback fires in deterministic
  // grid order with the exact squared distance already computed. Receivers
  // sharing an integer propagation delay share exact start/end timestamps,
  // so they batch into one arrival group (DESIGN.md §17): one start and one
  // end event per (frame, delay) with two or more receivers. A lone receiver
  // is parked as a pending single and scheduled after the pass as the
  // classic pair of direct closures — all delivery state inline in the event
  // slot, no group indirection on the (dominant) collision-free path.
  //
  // Scheduling after the pass reorders pushes between delay slots relative
  // to per-receiver scheduling, which is unobservable: transmit()'s pushes
  // are contiguous in the sequence space, so FIFO ties with events outside
  // this block cannot change, and equal timestamps inside it imply the same
  // delay slot — whose members fire through one group event in grid order.
  const double rx2 = cfg_.tx_range_m * cfg_.tx_range_m;
  std::uint64_t remote_mask = 0;  // home shards with a remote receiver
  local.group_scratch.clear();
  local.single_scratch.clear();
  local.remote_scratch.clear();
  const std::uint64_t epoch = ++local.open_epoch;
  mobility_.for_each_within(
      tx_pos, cfg_.cs_range_m, frame->tx, [&](NodeId r, double d2) {
        if (r >= phys_.size() || phys_[r] == nullptr) return;
        const bool in_rx_range = d2 <= rx2;
        const double dist = std::sqrt(d2);
        const sim::Time prop = propagation_delay(dist);
        const ArrivalRec rec{phys_[r], ++local.next_arrival_id, dist,
                             in_rx_range};
        if (sharded_ && node_shard_[r] != here) {
          // Remote receiver: noted now (arrival ids stay in grid order),
          // grouped per destination shard after the pass.
          local.remote_scratch.push_back(
              RemoteRec{rec, prop, node_shard_[r]});
          remote_mask |= std::uint64_t{1} << node_shard_[r];
          return;
        }
        OpenGroup& slot = local.open_groups[static_cast<std::size_t>(prop)];
        if (slot.epoch != epoch) {
          slot.epoch = epoch;
          slot.group = nullptr;
          slot.single =
              static_cast<std::uint32_t>(local.single_scratch.size());
          local.single_scratch.push_back(PendingSingle{rec, prop});
          return;
        }
        ArrivalGroup* g = slot.group;
        if (g == nullptr) {
          // Second receiver on this delay: promote the parked single.
          PendingSingle& first = local.single_scratch[slot.single];
          g = local.group_pool.acquire();
          g->frame = frame;
          g->end_time = now + prop + duration;
          g->recs.push_back(first.rec);
          first.rec.phy = nullptr;  // consumed
          slot.group = g;
          local.group_scratch.push_back(g);
        } else if (g->recs.size() == kArrivalGroupCapacity) {
          g = local.group_pool.acquire();
          g->frame = frame;
          g->end_time = slot.group->end_time;
          slot.group = g;
          local.group_scratch.push_back(g);
        }
        g->recs.push_back(rec);
      });

  for (ArrivalGroup* g : local.group_scratch) {
    ++local.stats.arrival_groups;
    local.stats.arrival_records += g->recs.size();
    ++local.stats.arrival_group_size_hist[group_size_bucket(g->recs.size())];
    auto on_start = [this, g] { fire_group_start(g); };
    auto on_end = [this, g] { fire_group_end(g); };
    static_assert(
        sim::EventQueue::Handler::fits_inline<decltype(on_start)>());
    static_assert(
        sim::EventQueue::Handler::fits_inline<decltype(on_end)>());
    sim_.at(g->end_time - duration, std::move(on_start));
    sim_.at(g->end_time, std::move(on_end));
  }
  for (const PendingSingle& s : local.single_scratch) {
    if (s.rec.phy == nullptr) continue;  // promoted into a group
    Phy* phy = s.rec.phy;
    const std::uint64_t arrival_id = s.rec.arrival_id;
    const bool in_rx_range = s.rec.in_rx_range;
    const double dist = s.rec.distance_m;
    const sim::Time end = now + s.prop + duration;
    auto on_start = [phy, arrival_id, frame, in_rx_range, dist, end] {
      phy->arrival_start(arrival_id, frame, in_rx_range, dist, end);
    };
    auto on_end = [phy, arrival_id, frame, in_rx_range] {
      phy->arrival_end(arrival_id, frame, in_rx_range);
    };
    // Scheduled per lone receiver per frame — the single hottest schedule
    // site; they must never spill to the heap.
    static_assert(
        sim::EventQueue::Handler::fits_inline<decltype(on_start)>());
    static_assert(
        sim::EventQueue::Handler::fits_inline<decltype(on_end)>());
    sim_.at(now + s.prop, std::move(on_start));
    sim_.at(end, std::move(on_end));
  }

  if (!local.remote_scratch.empty()) {
    // One grouping pass per destination shard, ascending — preserving the
    // per-mailbox append order that barrier drains rely on. Both closures
    // share ownership of a group; it dies on the destination thread when
    // the second one is destroyed after firing. Lone remote receivers keep
    // the direct per-receiver posts, exactly like the local singles above
    // (their pending state lives in remote_scratch itself: a promoted
    // entry's phy is nulled, and each entry belongs to exactly one dst).
    // group_scratch (done with the local tally above) is reused to
    // histogram remote groups once their record counts are final; the raw
    // pointers stay valid through this call because the closures hold the
    // owning references.
    local.group_scratch.clear();
    for (std::size_t dst = 0; dst < state_.size(); ++dst) {
      if ((remote_mask & (std::uint64_t{1} << dst)) == 0) continue;
      const std::uint64_t dst_epoch = ++local.open_epoch;
      for (std::size_t i = 0; i < local.remote_scratch.size(); ++i) {
        RemoteRec& rr = local.remote_scratch[i];
        if (rr.home != dst) continue;
        OpenGroup& slot =
            local.open_groups[static_cast<std::size_t>(rr.prop)];
        if (slot.epoch != dst_epoch) {
          slot.epoch = dst_epoch;
          slot.group = nullptr;
          slot.single = static_cast<std::uint32_t>(i);
          continue;
        }
        ArrivalGroup* g = slot.group;
        if (g == nullptr || g->recs.size() == kArrivalGroupCapacity) {
          auto sg = std::make_shared<ArrivalGroup>();
          ArrivalGroup* fresh = sg.get();
          fresh->frame = frame;
          fresh->end_time = now + rr.prop + duration;
          if (g == nullptr) {
            RemoteRec& first = local.remote_scratch[slot.single];
            fresh->recs.push_back(first.rec);
            first.rec.phy = nullptr;  // consumed
          }
          g = fresh;
          slot.group = g;
          local.group_scratch.push_back(g);
          sim_.post(dst, now + rr.prop,
                    [this, sg] { fire_group_start(sg.get()); });
          sim_.post(dst, g->end_time,
                    [this, sg] { fire_remote_group_end(sg.get()); });
        }
        g->recs.push_back(rr.rec);
      }
      for (const RemoteRec& rr : local.remote_scratch) {
        if (rr.home != dst || rr.rec.phy == nullptr) continue;
        Phy* phy = rr.rec.phy;
        const std::uint64_t arrival_id = rr.rec.arrival_id;
        const bool in_rx_range = rr.rec.in_rx_range;
        const double dist = rr.rec.distance_m;
        const sim::Time start = now + rr.prop;
        const sim::Time end = start + duration;
        sim_.post(dst, start,
                  [phy, arrival_id, frame, in_rx_range, dist, end] {
                    phy->arrival_start(arrival_id, frame, in_rx_range, dist,
                                       end);
                  });
        sim_.post(dst, end, [phy, arrival_id, frame, in_rx_range] {
          phy->arrival_end(arrival_id, frame, in_rx_range);
        });
      }
    }
    for (const ArrivalGroup* g : local.group_scratch) {
      ++local.stats.arrival_groups;
      local.stats.arrival_records += g->recs.size();
      ++local.stats
            .arrival_group_size_hist[group_size_bucket(g->recs.size())];
    }
  }

  if (remote_mask != 0) {
    // Ghost busy-marker: every remote shard with a sensed receiver mirrors
    // this transmission into its own carrier-sense replica, so a radio
    // waking there mid-frame still senses it. Arrives clamped to the window
    // end — the same bounded deferral as the arrivals themselves.
    const sim::Time tx_end = now + duration;
    for (std::size_t m = 0; remote_mask != 0; ++m, remote_mask >>= 1) {
      if ((remote_mask & 1) == 0) continue;
      sim_.post(m, now, [this, tx_pos, tx_end] {
        add_in_flight(local_state(), tx_pos, tx_end);
      });
    }
  }
}

sim::Time Channel::sensed_busy_until(geo::Vec2 pos) const {
  sim::Time latest = 0;
  ShardState& st = local_state();
  const double cs2 = cfg_.cs_range_m * cfg_.cs_range_m;
  const auto col_lo = static_cast<std::int64_t>(
      std::floor((pos.x - cfg_.cs_range_m) / cs_cell_size_));
  const auto col_hi = static_cast<std::int64_t>(
      std::floor((pos.x + cfg_.cs_range_m) / cs_cell_size_));
  const auto row_lo = static_cast<std::int64_t>(
      std::floor((pos.y - cfg_.cs_range_m) / cs_cell_size_));
  const auto row_hi = static_cast<std::int64_t>(
      std::floor((pos.y + cfg_.cs_range_m) / cs_cell_size_));
  for (std::int64_t row = std::max<std::int64_t>(0, row_lo);
       row <= std::min<std::int64_t>(cs_rows_ - 1, row_hi); ++row) {
    for (std::int64_t col = std::max<std::int64_t>(0, col_lo);
         col <= std::min<std::int64_t>(cs_cols_ - 1, col_hi); ++col) {
      const CsCell& cell =
          st.cs_cells[static_cast<std::size_t>(row) * cs_cols_ + col];
      ++st.stats.cs_cells_visited;
      if (cell.entries.empty()) continue;
      // Every arrival-end in this cell is <= max_end + max_prop_: skip the
      // scan when even that bound cannot beat the current maximum.
      if (cell.max_end + max_prop_ <= latest) continue;
      for (const InFlight& f : cell.entries) {
        ++st.stats.cs_entries_scanned;
        const double d2 = geo::distance_sq(f.tx_pos, pos);
        if (d2 > cs2) continue;
        const sim::Time arrival_end =
            f.end + propagation_delay(std::sqrt(d2));
        latest = std::max(latest, arrival_end);
      }
    }
  }
  return latest;
}

std::size_t Channel::neighbor_count(NodeId id) const {
  return mobility_.count_neighbors(id, cfg_.tx_range_m);
}

std::size_t Channel::in_flight_size() const {
  std::size_t n = 0;
  for (const ShardState& st : state_) {
    for (const CsCell& cell : st.cs_cells) n += cell.entries.size();
  }
  return n;
}

geo::Vec2 Channel::position_of(NodeId id) const {
  return mobility_.position(id);
}

ChannelStats Channel::stats() const {
  ChannelStats total;
  for (const ShardState& st : state_) {
    total.frames_transmitted += st.stats.frames_transmitted;
    total.bits_transmitted += st.stats.bits_transmitted;
    total.cs_cells_visited += st.stats.cs_cells_visited;
    total.cs_entries_scanned += st.stats.cs_entries_scanned;
    total.arrival_groups += st.stats.arrival_groups;
    total.arrival_records += st.stats.arrival_records;
    total.arrival_group_fires += st.stats.arrival_group_fires;
    total.arrival_member_fires += st.stats.arrival_member_fires;
    for (std::size_t i = 0; i < total.arrival_group_size_hist.size(); ++i) {
      total.arrival_group_size_hist[i] += st.stats.arrival_group_size_hist[i];
    }
  }
  return total;
}

}  // namespace rcast::phy
