#include "routing/dsr.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/assert.hpp"
#include "util/pool.hpp"

namespace rcast::routing {

namespace {

std::uint64_t rreq_key(NodeId origin, std::uint32_t id) {
  return (static_cast<std::uint64_t>(origin) << 32) | id;
}

const DsrPacket& as_dsr(const mac::NetDatagramPtr& pkt) {
  return *static_cast<const DsrPacket*>(pkt.get());
}

DsrPacketPtr as_dsr_ptr(const mac::NetDatagramPtr& pkt) {
  return std::static_pointer_cast<const DsrPacket>(pkt);
}

}  // namespace

Dsr::Dsr(sim::Simulator& simulator, mac::Mac& mac_layer,
         const DsrConfig& config, Rng rng, mac::PowerPolicy* policy)
    : sim_(simulator),
      mac_(mac_layer),
      cfg_(config),
      rng_(rng),
      policy_(policy),
      cache_(mac_layer.id(), config.cache),
      buffer_(config.send_buffer_capacity),
      buffer_expiry_(simulator, [this] { expire_buffer(); }) {
  mac_.set_callbacks(this);
  buffer_expiry_.start(simulator.now() + sim::kSecond, sim::kSecond);
}

// --------------------------------------------------------------------------
// Origination
// --------------------------------------------------------------------------

void Dsr::send_data(NodeId dst, std::int64_t payload_bits,
                    std::uint32_t flow_id, std::uint32_t app_seq) {
  RCAST_REQUIRE(dst != id());
  RCAST_REQUIRE(payload_bits >= 0);
  auto pkt = util::make_pooled<DsrPacket>(sim_.pools());
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

void Dsr::try_send(DsrPacketPtr pkt) {
  auto route = cache_.find(pkt->dst, sim_.now());
  if (route) {
    auto routed = util::make_pooled<DsrPacket>(sim_.pools(), *pkt);
    routed->route = std::move(*route);
    routed->hop_index = 0;
    if (routed->first_tx_time == 0) routed->first_tx_time = sim_.now();
    transmit_data(std::move(routed));
    return;
  }
  const NodeId dst = pkt->dst;
  for (auto& victim : buffer_.push(std::move(pkt), sim_.now())) {
    drop(victim, DropReason::kSendBufferOverflow);
  }
  start_discovery(dst);
}

void Dsr::transmit_data(DsrPacketPtr pkt) {
  RCAST_DCHECK(pkt->route.size() >= 2);
  RCAST_DCHECK(pkt->route[pkt->hop_index] == id());
  const NodeId next = pkt->route[pkt->hop_index + 1];
  if (pkt->hop_index == 0 && observer_ != nullptr) {
    observer_->on_route_used(pkt->route, sim_.now());
  }
  if (policy_ != nullptr && pkt->hop_index == 0) {
    policy_->on_routing_event(mac::RoutingEvent::kDataSent, sim_.now());
  }
  if (!mac_.send(next, pkt, cfg_.oh_map.data)) {
    drop(pkt, DropReason::kMacQueueFull);
  }
}

void Dsr::start_discovery(NodeId dst) {
  auto [it, inserted] = discoveries_.try_emplace(dst);
  if (!inserted) return;  // discovery already running
  it->second.attempts = 0;
  send_rreq(dst, cfg_.nonpropagating_first ? 1 : cfg_.network_ttl);
}

void Dsr::send_rreq(NodeId dst, int ttl) {
  auto it = discoveries_.find(dst);
  RCAST_DCHECK(it != discoveries_.end());
  Discovery& d = it->second;

  auto pkt = util::make_pooled<DsrPacket>(sim_.pools());
  pkt->type = PacketType::kRreq;
  pkt->src = id();
  pkt->dst = dst;
  pkt->rreq_id = ++next_rreq_id_;
  pkt->recorded = {id()};
  pkt->ttl = ttl;
  ++stats_.rreq_originated;
  if (observer_ != nullptr) {
    observer_->on_control_transmit(PacketType::kRreq, sim_.now());
  }
  mac_.send(mac::kBroadcastId, std::move(pkt), cfg_.oh_map.rreq_bcast);

  // Exponential retry backoff with jitter.
  sim::Time delay = cfg_.rreq_backoff_base;
  for (int i = 0; i < d.attempts && delay < cfg_.rreq_backoff_max; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, cfg_.rreq_backoff_max);
  delay += sim::from_millis(rng_.uniform(0.0, 100.0));
  d.retry_event = sim_.after(delay, [this, dst] { on_rreq_timeout(dst); });
}

void Dsr::on_rreq_timeout(NodeId dst) {
  auto it = discoveries_.find(dst);
  if (it == discoveries_.end()) return;
  if (!buffer_.any_for(dst)) {
    discoveries_.erase(it);
    return;
  }
  // A route may have been learned via overhearing meanwhile.
  if (cache_.has_route(dst, sim_.now())) {
    discoveries_.erase(it);
    drain_buffer_via_cache();
    return;
  }
  Discovery& d = it->second;
  ++d.attempts;
  if (d.attempts >= cfg_.max_rreq_attempts) {
    discoveries_.erase(it);
    for (auto& pkt : buffer_.take_for(dst)) {
      drop(pkt, DropReason::kNoRoute);
    }
    return;
  }
  send_rreq(dst, cfg_.network_ttl);
}

void Dsr::cancel_discovery(NodeId dst) {
  auto it = discoveries_.find(dst);
  if (it == discoveries_.end()) return;
  sim_.cancel(it->second.retry_event);
  discoveries_.erase(it);
}

void Dsr::expire_buffer() {
  for (auto& pkt : buffer_.expire(sim_.now(), cfg_.send_buffer_timeout)) {
    drop(pkt, DropReason::kSendBufferTimeout);
  }
}

void Dsr::drop(const DsrPacketPtr& pkt, DropReason reason) {
  ++stats_.drops[static_cast<int>(reason)];
  if (observer_ != nullptr) {
    observer_->on_data_dropped(*pkt, reason, sim_.now());
  }
}

// --------------------------------------------------------------------------
// Receive path
// --------------------------------------------------------------------------

void Dsr::mac_deliver(const mac::NetDatagramPtr& pkt, NodeId from) {
  (void)from;
  const DsrPacket& p = as_dsr(pkt);
  switch (p.type) {
    case PacketType::kRreq:
      handle_rreq(p);
      break;
    case PacketType::kRrep:
      handle_rrep(p);
      break;
    case PacketType::kData:
      handle_data(p, as_dsr_ptr(pkt));
      break;
    case PacketType::kRerr:
      handle_rerr(p);
      break;
    case PacketType::kHello:
      break;  // AODV-only packet type; DSR never originates or expects it
  }
}

bool Dsr::rreq_seen(NodeId origin, std::uint32_t rreq_id) {
  // Lazy pruning bounds the table on long runs.
  if (rreq_seen_.size() > 4096) {
    const sim::Time cutoff = sim_.now() - 30 * sim::kSecond;
    std::erase_if(rreq_seen_,
                  [cutoff](const auto& kv) { return kv.second < cutoff; });
  }
  const auto key = rreq_key(origin, rreq_id);
  auto [it, inserted] = rreq_seen_.try_emplace(key, sim_.now());
  if (!inserted) {
    it->second = sim_.now();
    return true;
  }
  return false;
}

void Dsr::handle_rreq(const DsrPacket& pkt) {
  if (pkt.src == id()) return;  // our own flood echoed back
  if (rreq_seen(pkt.src, pkt.rreq_id)) {
    ++stats_.rreq_duplicates;
    return;
  }
  // Already on the recorded route ⇒ forwarding would loop.
  if (std::find(pkt.recorded.begin(), pkt.recorded.end(), id()) !=
      pkt.recorded.end()) {
    return;
  }

  // The accumulated record is a route back to the originator.
  Route reverse(pkt.recorded.rbegin(), pkt.recorded.rend());
  reverse.insert(reverse.begin(), id());
  cache_.add(std::move(reverse), sim_.now());

  if (pkt.dst == id()) {
    // Target: reply with the complete recorded route.
    Route route = pkt.recorded;
    route.push_back(id());
    ++stats_.rrep_from_target;
    send_rrep(std::move(route), pkt.recorded.size());
    return;
  }

  if (cfg_.reply_from_cache) {
    if (auto cached = cache_.find(pkt.dst, sim_.now())) {
      // Splice recorded + (me ... dst); reply only if loop-free.
      Route full = pkt.recorded;
      full.insert(full.end(), cached->begin(), cached->end());
      std::unordered_set<NodeId> seen_nodes;
      bool loop = false;
      for (NodeId n : full) {
        if (!seen_nodes.insert(n).second) {
          loop = true;
          break;
        }
      }
      if (!loop) {
        ++stats_.rrep_from_cache;
        send_rrep(std::move(full), pkt.recorded.size());
        return;
      }
    }
  }

  if (pkt.ttl <= 1) return;
  auto fwd = util::make_pooled<DsrPacket>(sim_.pools(), pkt);
  fwd->recorded.push_back(id());
  fwd->ttl = pkt.ttl - 1;
  ++stats_.rreq_forwarded;
  if (observer_ != nullptr) {
    observer_->on_control_transmit(PacketType::kRreq, sim_.now());
  }
  mac_.send(mac::kBroadcastId, std::move(fwd), cfg_.oh_map.rreq_bcast);
}

void Dsr::send_rrep(Route route, std::size_t my_index) {
  RCAST_DCHECK(my_index > 0 && my_index < route.size());
  RCAST_DCHECK(route[my_index] == id());
  auto rrep = util::make_pooled<DsrPacket>(sim_.pools());
  rrep->type = PacketType::kRrep;
  rrep->src = id();
  rrep->dst = route.front();
  rrep->route = std::move(route);
  rrep->hop_index = my_index;
  const NodeId next = rrep->route[my_index - 1];
  if (observer_ != nullptr) {
    observer_->on_control_transmit(PacketType::kRrep, sim_.now());
  }
  mac_.send(next, std::move(rrep), cfg_.oh_map.rrep);
}

void Dsr::handle_rrep(const DsrPacket& pkt) {
  // Find our position on the reply path. hop_index was the sender's index;
  // we expect to sit one step closer to the originator.
  RCAST_DCHECK(pkt.hop_index > 0 && pkt.hop_index < pkt.route.size());
  const std::size_t my_index = pkt.hop_index - 1;
  if (my_index >= pkt.route.size() || pkt.route[my_index] != id()) return;

  // Every node on the reply path learns the full discovered route: forward
  // segment toward the route's end, reverse segment toward its start.
  Route forward(pkt.route.begin() + static_cast<std::ptrdiff_t>(my_index),
                pkt.route.end());
  cache_.add(std::move(forward), sim_.now());
  if (my_index > 0) {
    Route back(pkt.route.rend() - static_cast<std::ptrdiff_t>(my_index) - 1,
               pkt.route.rend());
    cache_.add(std::move(back), sim_.now());
  }

  if (policy_ != nullptr) {
    policy_->on_routing_event(mac::RoutingEvent::kRrepReceived, sim_.now());
  }

  if (my_index == 0) {
    // We are the original requester: release buffered traffic.
    cancel_discovery(pkt.route.back());
    drain_buffer_via_cache();
    return;
  }

  auto fwd = util::make_pooled<DsrPacket>(sim_.pools(), pkt);
  fwd->hop_index = my_index;
  ++stats_.rrep_forwarded;
  if (observer_ != nullptr) {
    observer_->on_control_transmit(PacketType::kRrep, sim_.now());
  }
  mac_.send(pkt.route[my_index - 1], std::move(fwd), cfg_.oh_map.rrep);
}

void Dsr::drain_buffer_via_cache() {
  // Release every buffered packet whose destination is now resolvable (a
  // single RREP can unblock several destinations along the route).
  std::vector<NodeId> resolvable;
  for (const CachedRoute& r : cache_.routes()) {
    for (std::size_t i = 1; i < r.path.size(); ++i) {
      if (buffer_.any_for(r.path[i])) resolvable.push_back(r.path[i]);
    }
  }
  std::sort(resolvable.begin(), resolvable.end());
  resolvable.erase(std::unique(resolvable.begin(), resolvable.end()),
                   resolvable.end());
  for (NodeId dst : resolvable) {
    cancel_discovery(dst);
    for (auto& pkt : buffer_.take_for(dst)) {
      try_send(std::move(pkt));
    }
  }
}

void Dsr::handle_data(const DsrPacket& pkt, const DsrPacketPtr& shared) {
  if (pkt.dst == id()) {
    ++stats_.data_delivered;
    if (policy_ != nullptr) {
      policy_->on_routing_event(mac::RoutingEvent::kDataReceived, sim_.now());
    }
    if (observer_ != nullptr) observer_->on_data_delivered(pkt, sim_.now());
    return;
  }

  // Forward along the source route.
  const std::size_t my_index = pkt.hop_index + 1;
  if (my_index >= pkt.route.size() || pkt.route[my_index] != id()) {
    return;  // stale delivery (e.g. route salvaged upstream)
  }
  if (my_index + 1 >= pkt.route.size()) return;

  // Being on the route teaches us the route (both directions).
  Route forward(pkt.route.begin() + static_cast<std::ptrdiff_t>(my_index),
                pkt.route.end());
  cache_.add(std::move(forward), sim_.now());
  Route back(pkt.route.rend() - static_cast<std::ptrdiff_t>(my_index) - 1,
             pkt.route.rend());
  cache_.add(std::move(back), sim_.now());

  if (policy_ != nullptr) {
    policy_->on_routing_event(mac::RoutingEvent::kDataForwarded, sim_.now());
  }
  if (observer_ != nullptr) observer_->on_data_forwarded(id(), sim_.now());
  auto fwd = util::make_pooled<DsrPacket>(sim_.pools(), pkt);
  fwd->hop_index = my_index;
  ++stats_.data_forwarded;
  if (!mac_.send(pkt.route[my_index + 1], std::move(fwd), cfg_.oh_map.data)) {
    drop(shared, DropReason::kMacQueueFull);
  }
}

void Dsr::handle_rerr(const DsrPacket& pkt) {
  cache_.remove_link(pkt.broken_from, pkt.broken_to);
  const std::size_t my_index = pkt.hop_index + 1;
  if (my_index >= pkt.route.size() || pkt.route[my_index] != id()) return;
  if (my_index + 1 >= pkt.route.size()) return;  // reached the source
  auto fwd = util::make_pooled<DsrPacket>(sim_.pools(), pkt);
  fwd->hop_index = my_index;
  ++stats_.rerr_forwarded;
  if (observer_ != nullptr) {
    observer_->on_control_transmit(PacketType::kRerr, sim_.now());
  }
  mac_.send(pkt.route[my_index + 1], std::move(fwd), cfg_.oh_map.rerr);
}

// --------------------------------------------------------------------------
// Overhearing tap
// --------------------------------------------------------------------------

void Dsr::mac_overhear(const mac::NetDatagramPtr& pkt, NodeId from,
                       NodeId to) {
  (void)to;
  ++stats_.overheard;
  const DsrPacket& p = as_dsr(pkt);
  switch (p.type) {
    case PacketType::kData:
      if (policy_ != nullptr) {
        policy_->on_routing_event(mac::RoutingEvent::kDataOverheard,
                                  sim_.now());
      }
      cache_from_overheard_route(p.route, from);
      break;
    case PacketType::kRrep:
      cache_from_overheard_route(p.route, from);
      break;
    case PacketType::kRerr:
      // Stale-route purging: this is why RERR is sent with unconditional
      // overhearing (paper §3.3).
      cache_.remove_link(p.broken_from, p.broken_to);
      break;
    case PacketType::kRreq:
    case PacketType::kHello:
      break;  // broadcasts are delivered, not overheard; hello is AODV-only
  }
}

void Dsr::cache_from_overheard_route(const Route& route, NodeId from) {
  const auto it = std::find(route.begin(), route.end(), from);
  if (it == route.end()) return;
  const auto from_pos = static_cast<std::size_t>(it - route.begin());
  if (std::find(route.begin(), route.end(), id()) != route.end()) return;

  // We heard `from` directly, so [me, from, ...rest of route] is usable.
  Route toward_dst;
  toward_dst.push_back(id());
  toward_dst.insert(toward_dst.end(), route.begin() +
                                          static_cast<std::ptrdiff_t>(from_pos),
                    route.end());
  if (toward_dst.size() >= 2 && cache_.add(std::move(toward_dst), sim_.now())) {
    ++stats_.cache_adds_overhear;
  }

  if (cfg_.cache_reverse_overheard && from_pos > 0) {
    Route toward_src;
    toward_src.push_back(id());
    for (std::size_t i = from_pos + 1; i-- > 0;) {
      toward_src.push_back(route[i]);
    }
    if (cache_.add(std::move(toward_src), sim_.now())) {
      ++stats_.cache_adds_overhear;
    }
  }
}

// --------------------------------------------------------------------------
// Link-failure handling
// --------------------------------------------------------------------------

void Dsr::mac_tx_ok(const mac::NetDatagramPtr&, NodeId) {}

void Dsr::mac_tx_failed(const mac::NetDatagramPtr& pkt, NodeId next_hop) {
  cache_.remove_link(id(), next_hop);
  const DsrPacket& p = as_dsr(pkt);

  if (p.type != PacketType::kData) return;  // control packets are not salvaged

  // Inform the source (unless we are the source ourselves).
  if (p.src != id()) {
    originate_rerr(p, next_hop);
  }

  // Try to salvage with an alternative cached route.
  if (cfg_.salvage && p.salvage_count < cfg_.max_salvage) {
    if (auto route = cache_.find(p.dst, sim_.now())) {
      auto salvaged = util::make_pooled<DsrPacket>(sim_.pools(), p);
      salvaged->route = std::move(*route);
      salvaged->hop_index = 0;
      salvaged->salvage_count = p.salvage_count + 1;
      ++stats_.data_salvaged;
      if (observer_ != nullptr) observer_->on_data_salvaged(id(), sim_.now());
      if (mac_.send(salvaged->route[1], salvaged, cfg_.oh_map.data)) return;
    }
  }

  if (p.src == id() && p.salvage_count == 0) {
    // Source without an alternative: rediscover and retransmit from the
    // send buffer rather than dropping outright.
    auto requeued = util::make_pooled<DsrPacket>(sim_.pools(), p);
    requeued->route.clear();
    requeued->hop_index = 0;
    requeued->salvage_count = p.salvage_count + 1;
    try_send(std::move(requeued));
    return;
  }

  drop(as_dsr_ptr(pkt), DropReason::kLinkFailure);
}

void Dsr::originate_rerr(const DsrPacket& data_pkt, NodeId broken_to) {
  // Reverse of the traversed prefix: [me, ..., src].
  const std::size_t my_index = data_pkt.hop_index;
  if (my_index >= data_pkt.route.size() || data_pkt.route[my_index] != id()) {
    return;
  }
  Route back;
  for (std::size_t i = my_index + 1; i-- > 0;) back.push_back(data_pkt.route[i]);
  if (back.size() < 2) return;
  auto rerr = util::make_pooled<DsrPacket>(sim_.pools());
  rerr->type = PacketType::kRerr;
  rerr->src = id();
  rerr->dst = data_pkt.src;
  rerr->route = std::move(back);
  rerr->hop_index = 0;
  rerr->broken_from = id();
  rerr->broken_to = broken_to;
  ++stats_.rerr_originated;
  if (observer_ != nullptr) {
    observer_->on_control_transmit(PacketType::kRerr, sim_.now());
  }
  const NodeId next = rerr->route[1];
  mac_.send(next, std::move(rerr), cfg_.oh_map.rerr);
}

}  // namespace rcast::routing
