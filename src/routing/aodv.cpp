#include "routing/aodv.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rcast::routing {

namespace {

std::uint64_t rreq_key(NodeId origin, std::uint32_t id) {
  return (static_cast<std::uint64_t>(origin) << 32) | id;
}

const DsrPacket& as_pkt(const mac::NetDatagramPtr& pkt) {
  return *static_cast<const DsrPacket*>(pkt.get());
}

DsrPacketPtr as_pkt_ptr(const mac::NetDatagramPtr& pkt) {
  return std::static_pointer_cast<const DsrPacket>(pkt);
}

// Sequence-number comparison with wraparound (RFC 3561 §6.1).
bool seq_newer(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) > 0;
}

}  // namespace

Aodv::Aodv(sim::Simulator& simulator, mac::Mac& mac_layer,
           const AodvConfig& config, Rng rng, mac::PowerPolicy* policy)
    : sim_(simulator),
      mac_(mac_layer),
      cfg_(config),
      rng_(rng),
      policy_(policy),
      hello_timer_(simulator, [this] { on_hello_timer(); }),
      buffer_expiry_(simulator, [this] { expire_buffer(); }) {
  mac_.set_callbacks(this);
  // Desynchronize hello phases across nodes.
  const sim::Time phase = sim::from_millis(rng_.uniform(0.0, 1000.0));
  hello_timer_.start(simulator.now() + cfg_.hello_interval + phase,
                     cfg_.hello_interval);
  buffer_expiry_.start(simulator.now() + sim::kSecond, sim::kSecond);
}

// --------------------------------------------------------------------------
// Routing table
// --------------------------------------------------------------------------

bool Aodv::route_usable(NodeId dst) const {
  const auto it = table_.find(dst);
  return it != table_.end() && it->second.valid &&
         it->second.expires > sim_.now();
}

bool Aodv::has_route(NodeId dst) const { return route_usable(dst); }

NodeId Aodv::next_hop(NodeId dst) const {
  const auto it = table_.find(dst);
  RCAST_REQUIRE(it != table_.end());
  return it->second.next_hop;
}

bool Aodv::update_route(NodeId dst, NodeId via, std::uint32_t dest_seq,
                        std::uint32_t hops, sim::Time lifetime) {
  Route& r = table_[dst];
  const bool fresher = seq_newer(dest_seq, r.dest_seq);
  const bool same_seq_shorter = dest_seq == r.dest_seq && hops < r.hop_count;
  if (r.valid && !fresher && !same_seq_shorter && r.expires > sim_.now()) {
    // Existing route wins; still extend its lifetime if it is the same one.
    if (r.next_hop == via && r.hop_count == hops) {
      r.expires = std::max(r.expires, sim_.now() + lifetime);
    }
    return false;
  }
  r.next_hop = via;
  r.dest_seq = dest_seq;
  r.hop_count = hops;
  r.expires = sim_.now() + lifetime;
  r.valid = true;
  return true;
}

void Aodv::refresh_route(NodeId dst) {
  auto it = table_.find(dst);
  if (it == table_.end() || !it->second.valid) return;
  it->second.expires =
      std::max(it->second.expires, sim_.now() + cfg_.active_route_timeout);
}

// --------------------------------------------------------------------------
// Origination
// --------------------------------------------------------------------------

void Aodv::send_data(NodeId dst, std::int64_t payload_bits,
                     std::uint32_t flow_id, std::uint32_t app_seq) {
  RCAST_REQUIRE(dst != id());
  RCAST_REQUIRE(payload_bits >= 0);
  auto pkt = std::make_shared<DsrPacket>();
  pkt->type = PacketType::kData;
  pkt->src = id();
  pkt->dst = dst;
  pkt->payload_bits = payload_bits;
  pkt->flow_id = flow_id;
  pkt->app_seq = app_seq;
  pkt->origin_time = sim_.now();
  ++stats_.data_originated;
  if (observer_ != nullptr) observer_->on_data_originated(*pkt, sim_.now());
  try_send(std::move(pkt));
}

void Aodv::try_send(DsrPacketPtr pkt) {
  if (route_usable(pkt->dst)) {
    auto out = std::make_shared<DsrPacket>(*pkt);
    if (out->first_tx_time == 0) out->first_tx_time = sim_.now();
    forward_data(std::move(out));
    return;
  }
  const NodeId dst = pkt->dst;
  buffer_.push_back(Buffered{std::move(pkt), sim_.now()});
  while (buffer_.size() > cfg_.send_buffer_capacity) {
    drop(buffer_.front().pkt, DropReason::kSendBufferOverflow);
    buffer_.pop_front();
  }
  start_discovery(dst);
}

void Aodv::forward_data(DsrPacketPtr pkt) {
  const NodeId nh = table_.at(pkt->dst).next_hop;
  refresh_route(pkt->dst);
  refresh_route(nh);
  if (policy_ != nullptr) {
    policy_->on_routing_event(pkt->src == id()
                                  ? mac::RoutingEvent::kDataSent
                                  : mac::RoutingEvent::kDataForwarded,
                              sim_.now());
  }
  // AODV forbids overhearing: every packet uses the standard ATIM subtype.
  if (!mac_.send(nh, pkt, mac::OverhearingMode::kNone)) {
    drop(pkt, DropReason::kMacQueueFull);
  }
}

void Aodv::start_discovery(NodeId dst) {
  auto [it, inserted] = discoveries_.try_emplace(dst);
  if (!inserted) return;
  it->second.attempts = 0;
  send_rreq(dst, cfg_.ttl_start);
}

void Aodv::send_rreq(NodeId dst, int ttl) {
  auto it = discoveries_.find(dst);
  RCAST_DCHECK(it != discoveries_.end());
  Discovery& d = it->second;

  auto pkt = std::make_shared<DsrPacket>();
  pkt->type = PacketType::kRreq;
  pkt->src = id();
  pkt->dst = dst;
  pkt->rreq_id = ++next_rreq_id_;
  pkt->orig_seq = ++my_seq_;
  const auto known = table_.find(dst);
  pkt->dest_seq = known != table_.end() ? known->second.dest_seq : 0;
  pkt->hop_count = 0;
  pkt->ttl = ttl;
  ++stats_.rreq_originated;
  if (observer_ != nullptr) {
    observer_->on_control_transmit(PacketType::kRreq, sim_.now());
  }
  mac_.send(mac::kBroadcastId, std::move(pkt), mac::OverhearingMode::kNone);

  sim::Time delay = cfg_.rreq_backoff_base;
  for (int i = 0; i < d.attempts && delay < cfg_.rreq_backoff_max; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, cfg_.rreq_backoff_max);
  delay += sim::from_millis(rng_.uniform(0.0, 100.0));
  d.retry_event = sim_.after(delay, [this, dst] { on_rreq_timeout(dst); });
}

void Aodv::on_rreq_timeout(NodeId dst) {
  auto it = discoveries_.find(dst);
  if (it == discoveries_.end()) return;
  const bool pending = std::any_of(
      buffer_.begin(), buffer_.end(),
      [dst](const Buffered& b) { return b.pkt->dst == dst; });
  if (!pending || route_usable(dst)) {
    discoveries_.erase(it);
    if (route_usable(dst)) drain_buffer(dst);
    return;
  }
  Discovery& d = it->second;
  ++d.attempts;
  if (d.attempts >= cfg_.max_rreq_attempts) {
    discoveries_.erase(it);
    for (auto b = buffer_.begin(); b != buffer_.end();) {
      if (b->pkt->dst == dst) {
        drop(b->pkt, DropReason::kNoRoute);
        b = buffer_.erase(b);
      } else {
        ++b;
      }
    }
    return;
  }
  // Expanding-ring: grow the TTL, then go network-wide.
  int ttl = cfg_.ttl_start + d.attempts * cfg_.ttl_increment;
  if (ttl > cfg_.ttl_threshold) ttl = cfg_.network_ttl;
  send_rreq(dst, ttl);
}

void Aodv::drain_buffer(NodeId dst) {
  for (auto it = buffer_.begin(); it != buffer_.end();) {
    if (it->pkt->dst == dst && route_usable(dst)) {
      auto out = std::make_shared<DsrPacket>(*it->pkt);
      if (out->first_tx_time == 0) out->first_tx_time = sim_.now();
      it = buffer_.erase(it);
      forward_data(std::move(out));
    } else {
      ++it;
    }
  }
}

void Aodv::expire_buffer() {
  for (auto it = buffer_.begin(); it != buffer_.end();) {
    if (sim_.now() - it->enqueued > cfg_.send_buffer_timeout) {
      drop(it->pkt, DropReason::kSendBufferTimeout);
      it = buffer_.erase(it);
    } else {
      ++it;
    }
  }
  // Lazy route expiry accounting (the table itself is checked on use).
  for (auto& [dst, r] : table_) {
    if (r.valid && r.expires <= sim_.now()) {
      r.valid = false;
      ++stats_.routes_expired;
    }
  }
}

void Aodv::drop(const DsrPacketPtr& pkt, DropReason reason) {
  ++stats_.drops[static_cast<int>(reason)];
  if (observer_ != nullptr) {
    observer_->on_data_dropped(*pkt, reason, sim_.now());
  }
}

// --------------------------------------------------------------------------
// Receive path
// --------------------------------------------------------------------------

void Aodv::mac_deliver(const mac::NetDatagramPtr& pkt, NodeId from) {
  const DsrPacket& p = as_pkt(pkt);
  neighbors_last_heard_[from] = sim_.now();
  switch (p.type) {
    case PacketType::kRreq:
      handle_rreq(p, from);
      break;
    case PacketType::kRrep:
      handle_rrep(p, from);
      break;
    case PacketType::kRerr:
      handle_rerr(p, from);
      break;
    case PacketType::kHello:
      handle_hello(p, from);
      break;
    case PacketType::kData:
      handle_data(p, as_pkt_ptr(pkt), from);
      break;
  }
}

bool Aodv::rreq_seen(NodeId origin, std::uint32_t rreq_id) {
  if (rreq_seen_.size() > 4096) {
    const sim::Time cutoff = sim_.now() - 30 * sim::kSecond;
    std::erase_if(rreq_seen_,
                  [cutoff](const auto& kv) { return kv.second < cutoff; });
  }
  auto [it, inserted] = rreq_seen_.try_emplace(rreq_key(origin, rreq_id),
                                               sim_.now());
  if (!inserted) {
    it->second = sim_.now();
    return true;
  }
  return false;
}

void Aodv::handle_rreq(const DsrPacket& pkt, NodeId from) {
  if (pkt.src == id()) return;
  if (rreq_seen(pkt.src, pkt.rreq_id)) {
    ++stats_.rreq_duplicates;
    return;
  }

  // Reverse route toward the originator (via the transmitter).
  update_route(pkt.src, from, pkt.orig_seq, pkt.hop_count + 1,
               cfg_.active_route_timeout);
  update_route(from, from, 0, 1, cfg_.active_route_timeout);

  auto reply = [&](std::uint32_t dest_seq, std::uint32_t hops,
                   bool from_target) {
    auto rrep = std::make_shared<DsrPacket>();
    rrep->type = PacketType::kRrep;
    rrep->src = pkt.dst;   // route target
    rrep->dst = pkt.src;   // back to the originator
    rrep->dest_seq = dest_seq;
    rrep->hop_count = hops;
    if (from_target) {
      ++stats_.rrep_from_target;
    } else {
      ++stats_.rrep_from_intermediate;
    }
    if (observer_ != nullptr) {
      observer_->on_control_transmit(PacketType::kRrep, sim_.now());
    }
    mac_.send(table_.at(pkt.src).next_hop, std::move(rrep),
              mac::OverhearingMode::kNone);
  };

  if (pkt.dst == id()) {
    // RFC: the destination bumps its seq to at least the requested one.
    if (seq_newer(pkt.dest_seq, my_seq_)) my_seq_ = pkt.dest_seq;
    ++my_seq_;
    reply(my_seq_, 0, true);
    return;
  }

  if (cfg_.intermediate_rrep) {
    const auto it = table_.find(pkt.dst);
    if (it != table_.end() && it->second.valid &&
        it->second.expires > sim_.now() &&
        !seq_newer(pkt.dest_seq, it->second.dest_seq)) {
      reply(it->second.dest_seq, it->second.hop_count, false);
      return;
    }
  }

  if (pkt.ttl <= 1) return;
  auto fwd = std::make_shared<DsrPacket>(pkt);
  fwd->hop_count = pkt.hop_count + 1;
  fwd->ttl = pkt.ttl - 1;
  ++stats_.rreq_forwarded;
  if (observer_ != nullptr) {
    observer_->on_control_transmit(PacketType::kRreq, sim_.now());
  }
  mac_.send(mac::kBroadcastId, std::move(fwd), mac::OverhearingMode::kNone);
}

void Aodv::handle_rrep(const DsrPacket& pkt, NodeId from) {
  // Forward route to the target (pkt.src) via the transmitter.
  const bool installed = update_route(pkt.src, from, pkt.dest_seq,
                                      pkt.hop_count + 1,
                                      cfg_.active_route_timeout);
  update_route(from, from, 0, 1, cfg_.active_route_timeout);
  if (policy_ != nullptr) {
    policy_->on_routing_event(mac::RoutingEvent::kRrepReceived, sim_.now());
  }

  if (pkt.dst == id()) {
    auto it = discoveries_.find(pkt.src);
    if (it != discoveries_.end()) {
      sim_.cancel(it->second.retry_event);
      discoveries_.erase(it);
    }
    drain_buffer(pkt.src);
    return;
  }

  // Forward toward the originator along the reverse route.
  (void)installed;
  if (!route_usable(pkt.dst)) return;  // reverse route gone
  auto fwd = std::make_shared<DsrPacket>(pkt);
  fwd->hop_count = pkt.hop_count + 1;
  ++stats_.rrep_forwarded;
  if (observer_ != nullptr) {
    observer_->on_control_transmit(PacketType::kRrep, sim_.now());
  }
  mac_.send(table_.at(pkt.dst).next_hop, std::move(fwd),
            mac::OverhearingMode::kNone);
}

void Aodv::handle_data(const DsrPacket& pkt, const DsrPacketPtr& shared,
                       NodeId from) {
  refresh_route(pkt.src);
  refresh_route(from);
  if (pkt.dst == id()) {
    ++stats_.data_delivered;
    if (policy_ != nullptr) {
      policy_->on_routing_event(mac::RoutingEvent::kDataReceived, sim_.now());
    }
    if (observer_ != nullptr) observer_->on_data_delivered(pkt, sim_.now());
    return;
  }
  if (!route_usable(pkt.dst)) {
    // No forward route: RERR back toward the source (broadcast, TTL 1).
    ++stats_.link_breaks;
    const auto it = table_.find(pkt.dst);
    send_rerr({{pkt.dst, it != table_.end() ? it->second.dest_seq : 0}});
    drop(shared, DropReason::kLinkFailure);
    return;
  }
  ++stats_.data_forwarded;
  if (observer_ != nullptr) observer_->on_data_forwarded(id(), sim_.now());
  forward_data(std::make_shared<DsrPacket>(pkt));
}

void Aodv::handle_hello(const DsrPacket&, NodeId from) {
  update_route(from, from, 0, 1,
               cfg_.allowed_hello_loss * cfg_.hello_interval +
                   cfg_.hello_interval / 2);
}

void Aodv::handle_rerr(const DsrPacket& pkt, NodeId from) {
  // Invalidate every route whose next hop is the RERR sender and whose
  // destination is listed; propagate for routes we invalidated.
  std::vector<std::pair<NodeId, std::uint32_t>> propagate;
  for (const auto& [dst, seq] : pkt.unreachable) {
    auto it = table_.find(dst);
    if (it == table_.end() || !it->second.valid) continue;
    if (it->second.next_hop != from) continue;
    it->second.valid = false;
    it->second.dest_seq = std::max(it->second.dest_seq, seq);
    propagate.emplace_back(dst, seq);
  }
  if (!propagate.empty()) send_rerr(std::move(propagate));
}

// --------------------------------------------------------------------------
// Link maintenance
// --------------------------------------------------------------------------

void Aodv::mac_overhear(const mac::NetDatagramPtr&, NodeId from, NodeId) {
  // AODV does not use promiscuous route learning (the paper's §1 footnote),
  // but hearing any frame proves the neighbor is alive.
  neighbors_last_heard_[from] = sim_.now();
}

void Aodv::mac_tx_ok(const mac::NetDatagramPtr&, NodeId next) {
  neighbors_last_heard_[next] = sim_.now();
}

void Aodv::mac_tx_failed(const mac::NetDatagramPtr& pkt, NodeId next) {
  ++stats_.link_breaks;
  on_link_broken(next);
  const DsrPacket& p = as_pkt(pkt);
  if (p.type != PacketType::kData) return;
  if (p.src == id() && p.salvage_count == 0) {
    // Source: buffer and rediscover instead of dropping.
    auto requeued = std::make_shared<DsrPacket>(p);
    requeued->salvage_count = 1;
    try_send(std::move(requeued));
    return;
  }
  drop(as_pkt_ptr(pkt), DropReason::kLinkFailure);
}

void Aodv::on_link_broken(NodeId neighbor) {
  std::vector<std::pair<NodeId, std::uint32_t>> unreachable;
  for (auto& [dst, r] : table_) {
    if (r.valid && r.next_hop == neighbor) {
      r.valid = false;
      ++r.dest_seq;  // RFC: increment seq of the lost destination
      unreachable.emplace_back(dst, r.dest_seq);
    }
  }
  neighbors_last_heard_.erase(neighbor);
  if (!unreachable.empty()) send_rerr(std::move(unreachable));
}

void Aodv::send_rerr(
    std::vector<std::pair<NodeId, std::uint32_t>> unreachable) {
  auto rerr = std::make_shared<DsrPacket>();
  rerr->type = PacketType::kRerr;
  rerr->src = id();
  rerr->dst = mac::kBroadcastId;
  rerr->ttl = 1;
  rerr->unreachable = std::move(unreachable);
  ++stats_.rerr_sent;
  if (observer_ != nullptr) {
    observer_->on_control_transmit(PacketType::kRerr, sim_.now());
  }
  mac_.send(mac::kBroadcastId, std::move(rerr), mac::OverhearingMode::kNone);
}

void Aodv::on_hello_timer() {
  check_neighbors();
  if (cfg_.hello_only_when_active) {
    const bool active = std::any_of(
        table_.begin(), table_.end(), [this](const auto& kv) {
          return kv.second.valid && kv.second.expires > sim_.now();
        });
    if (!active) return;
  }
  auto hello = std::make_shared<DsrPacket>();
  hello->type = PacketType::kHello;
  hello->src = id();
  hello->dst = mac::kBroadcastId;
  hello->dest_seq = my_seq_;
  ++stats_.hello_sent;
  if (observer_ != nullptr) {
    observer_->on_control_transmit(PacketType::kHello, sim_.now());
  }
  mac_.send(mac::kBroadcastId, std::move(hello), mac::OverhearingMode::kNone);
}

void Aodv::check_neighbors() {
  // A neighbor silent for allowed_hello_loss hello intervals is gone.
  const sim::Time deadline =
      sim_.now() - cfg_.allowed_hello_loss * cfg_.hello_interval;
  std::vector<NodeId> lost;
  for (const auto& [n, heard] : neighbors_last_heard_) {
    if (heard < deadline) lost.push_back(n);
  }
  for (NodeId n : lost) {
    bool routed_via = false;
    for (const auto& [dst, r] : table_) {
      if (r.valid && r.next_hop == n && r.expires > sim_.now()) {
        routed_via = true;
        break;
      }
    }
    if (routed_via) {
      on_link_broken(n);
    } else {
      neighbors_last_heard_.erase(n);
    }
  }
}

}  // namespace rcast::routing
