#include "src/interconnect/network.hpp"

#include <algorithm>
#include <cassert>

namespace tcdm {

HierNetwork::HierNetwork(const Topology& topo, unsigned req_grouping_factor,
                         StatsRegistry& stats)
    : topo_(topo),
      req_grouping_factor_(req_grouping_factor),
      num_classes_(topo.num_classes()),
      num_tiles_(topo.num_tiles()) {
  assert(req_grouping_factor_ >= 1 && req_grouping_factor_ <= kMaxGroupingFactor);
  const std::size_t ports = static_cast<std::size_t>(num_tiles_) * num_classes_;

  req_master_.reserve(ports);
  rsp_master_.reserve(ports);
  req_slave_.reserve(ports);
  req_wait_.reserve(ports);
  rsp_wait_.reserve(ports);
  // The (dst, cls) wait-lists hold at most one entry per tile whose traffic
  // to dst travels in class cls: each master port registers only its head.
  // Classes are numbered from the sender's side, so at a given dst some
  // classes have no sender: their lists and slave queue get no slot.
  std::vector<unsigned> senders(num_classes_);
  for (TileId dst = 0; dst < num_tiles_; ++dst) {
    std::fill(senders.begin(), senders.end(), 0u);
    for (TileId src = 0; src < num_tiles_; ++src) {
      if (src != dst) ++senders[topo.class_of(src, dst)];
    }
    for (std::uint8_t cls = 0; cls < num_classes_; ++cls) {
      req_master_.emplace_back(topo.req_latency(cls) + kMasterExtraSlots);
      rsp_master_.emplace_back(topo.rsp_latency(cls) + kMasterExtraSlots);
      req_slave_.emplace_back(senders[cls] == 0 ? 0 : kSlaveDepth);
      req_wait_.emplace_back(senders[cls]);
      rsp_wait_.emplace_back(senders[cls]);
    }
  }
  req_master_free_at_.assign(ports, 0);
  rsp_master_last_push_.assign(ports, kNoCycle);
  req_registered_.assign(ports, 0);
  rsp_registered_.assign(ports, 0);
  rsp_egress_rr_.assign(num_tiles_, 0);
  acks_.resize(num_tiles_);
  req_wait_map_.init(ports);
  rsp_dst_map_.init(num_tiles_);
  rsp_wait_cls_cnt_.assign(num_tiles_, 0);
  acks_map_.init(num_tiles_);

  static constexpr std::string_view kStats[] = {
      ".req_sent",      ".req_words",     ".rsp_beats",
      ".rsp_words",     ".req_hop_words", ".rsp_hop_words",
      ".egress_blocked_cycles"};
  stats.block("network", kStats,
              {&req_sent_, &req_words_, &rsp_beats_, &rsp_words_, &req_hop_words_,
               &rsp_hop_words_, &egress_blocked_});
}

void HierNetwork::send_req(TileId src, TileId dst, const TcdmReq& req, Cycle now) {
  const std::uint8_t cls = topo_.class_of(src, dst);
  const std::size_t p = port_index(src, cls);
  assert(can_send_req(src, cls, now));
  // A read burst is a single header beat; a write burst streams its payload
  // across the request-channel data field over ceil(len / req_gf) cycles.
  const Cycle beats =
      req.write && req.len > 1
          ? (req.len + req_grouping_factor_ - 1) / req_grouping_factor_
          : 1;
  const bool ok = req_master_[p].try_push(ReqEntry{req, dst},
                                          now + topo_.req_latency(cls) + beats - 1);
  assert(ok);
  (void)ok;
  req_master_free_at_[p] = now + beats;
  // An unregistered port was empty before this push, so the new request is
  // the head to register at its destination's egress.
  if (!req_registered_[p]) register_req_head(src, cls);
  req_sent_.inc();
  req_words_.inc(req.len);
  req_hop_words_.inc(static_cast<double>(req.len) * (topo_.req_latency(cls) + 1));
}

void HierNetwork::send_rsp(TileId responder, const TcdmResp& rsp, Cycle now) {
  const std::uint8_t cls = topo_.class_of(responder, rsp.dst_tile);
  const std::size_t p = port_index(responder, cls);
  assert(can_send_rsp(responder, rsp.dst_tile, now));
  const bool ok = rsp_master_[p].try_push(rsp, now + topo_.rsp_latency(cls));
  assert(ok);
  (void)ok;
  rsp_master_last_push_[p] = now;
  if (!rsp_registered_[p]) register_rsp_head(responder, cls);
  rsp_beats_.inc();
  rsp_words_.inc(rsp.num_words);
  rsp_hop_words_.inc(static_cast<double>(rsp.num_words) * (topo_.rsp_latency(cls) + 1));
}

void HierNetwork::send_store_ack(TileId responder, TileId requester, ReqOwner owner,
                                 Cycle now) {
  const std::uint8_t cls = topo_.class_of(responder, requester);
  if (acks_[requester].empty()) {
    ++acks_active_;
    acks_map_.set(requester);
  }
  acks_[requester].push_back(AckEntry{now + topo_.rsp_latency(cls), owner});
  rsp_hop_words_.inc(static_cast<double>(topo_.rsp_latency(cls)) + 1);
}

void HierNetwork::register_req_head(TileId src, std::uint8_t cls) {
  const std::size_t p = port_index(src, cls);
  if (req_master_[p].empty()) return;
  const TileId dst = req_master_[p].front().dst;
  const std::size_t e = port_index(dst, cls);
  auto& wait = req_wait_[e];
  if (wait.empty()) {
    ++req_wait_active_;
    req_wait_map_.set(e);
  }
  const bool ok = wait.try_push(src);
  assert(ok);
  (void)ok;
  req_registered_[p] = true;
}

void HierNetwork::register_rsp_head(TileId responder, std::uint8_t cls) {
  const std::size_t p = port_index(responder, cls);
  if (rsp_master_[p].empty()) return;
  const TileId dst = rsp_master_[p].front().dst_tile;
  auto& wait = rsp_wait_[port_index(dst, cls)];
  if (wait.empty()) {
    ++rsp_wait_active_;
    if (rsp_wait_cls_cnt_[dst]++ == 0) rsp_dst_map_.set(dst);
  }
  const bool ok = wait.try_push(responder);
  assert(ok);
  (void)ok;
  rsp_registered_[p] = true;
}

void HierNetwork::cycle(Cycle now, RspSink& sink) {
  // Deliver due store-ack credits (out-of-band; see send_store_ack). Each
  // requester tile's credits form one FIFO in send order, and a credit is
  // delivered only once it and every credit ahead of it are due. Response
  // latency differs per class, so a near credit can wait behind a far one
  // sent earlier; only the head needs checking.
  // The bitmaps enumerate exactly the active tiles/ports in the ascending
  // order the old full scans used, so the walk costs O(active), not
  // O(tiles x classes).
  if (acks_active_ > 0) {
    acks_map_.for_each_live([&](std::size_t t) {
      auto& q = acks_[t];
      assert(!q.empty());
      if (q.front().ready_at > now) return;
      do {
        TcdmResp ack;
        ack.write_ack = true;
        ack.num_words = 0;
        ack.dst_tile = static_cast<TileId>(t);
        ack.tag.owner = q.front().owner;
        sink.deliver_rsp(ack, now);
        q.pop_front();
      } while (!q.empty() && q.front().ready_at <= now);
      if (q.empty()) {
        --acks_active_;
        acks_map_.clear(t);
      }
    });
  }

  // Request egress: one delivery per (dst, class) per cycle, FCFS over the
  // master ports whose head currently routes here. A delivery may register a
  // new head at a higher egress index; for_each_live observes it this cycle,
  // exactly like the old ascending (dst, cls) loop.
  if (req_wait_active_ > 0) {
    req_wait_map_.for_each_live([&](std::size_t e) {
      const auto dst = static_cast<TileId>(e / num_classes_);
      const auto cls = static_cast<std::uint8_t>(e % num_classes_);
      auto& wait = req_wait_[e];
      assert(!wait.empty());
      auto& slave = req_slave_[e];
      if (slave.full()) {
        egress_blocked_.inc();
        return;
      }
      const TileId src = wait.front();
      const std::size_t mp = port_index(src, cls);
      auto& master = req_master_[mp];
      assert(!master.empty());
      if (!master.front_ready(now)) return;  // pipe latency not yet elapsed
      assert(master.front().dst == dst);
      (void)dst;
      const bool ok = slave.try_push(master.pop().req);
      assert(ok);
      (void)ok;
      wait.pop();
      if (wait.empty()) {
        --req_wait_active_;
        req_wait_map_.clear(e);
      }
      req_registered_[mp] = false;
      register_req_head(src, cls);  // re-register for the new head (if any)
    });
  }

  // Response egress: the CC retires at most ONE beat per cycle across all
  // classes (its GF-wide response channel); rotate class priority for
  // fairness. Delivery straight into the requesting core (always sinkable).
  if (rsp_wait_active_ > 0) {
    rsp_dst_map_.for_each_live([&](std::size_t d) {
      const auto dst = static_cast<TileId>(d);
      const unsigned rr = rsp_egress_rr_[dst];
      for (unsigned k = 0; k < num_classes_; ++k) {
        const auto cls = static_cast<std::uint8_t>((rr + k) % num_classes_);
        const std::size_t e = port_index(dst, cls);
        auto& wait = rsp_wait_[e];
        if (wait.empty()) continue;
        const TileId responder = wait.front();
        const std::size_t mp = port_index(responder, cls);
        auto& master = rsp_master_[mp];
        assert(!master.empty());
        if (!master.front_ready(now)) continue;
        assert(master.front().dst_tile == dst);
        sink.deliver_rsp(master.pop(), now);
        wait.pop();
        if (wait.empty()) {
          --rsp_wait_active_;
          assert(rsp_wait_cls_cnt_[dst] > 0);
          if (--rsp_wait_cls_cnt_[dst] == 0) rsp_dst_map_.clear(d);
        }
        rsp_registered_[mp] = false;
        register_rsp_head(responder, cls);
        rsp_egress_rr_[dst] = (cls + 1) % num_classes_;
        break;  // one beat per requester per cycle
      }
    });
  }
}

Cycle HierNetwork::earliest_wakeup(Cycle now) const {
  Cycle wake = kNoCycle;
  if (acks_active_ > 0) {
    acks_map_.for_each([&](std::size_t t) {
      const auto& q = acks_[t];
      assert(!q.empty());
      wake = std::min(wake, q.front().ready_at);
    });
  }
  // For each active egress, FCFS means only the wait-list head's master port
  // can move next; its head entry's ready time is exact (TimedQueue is
  // in-order, so the head is the earliest of the whole pipe).
  if (req_wait_active_ > 0) {
    req_wait_map_.for_each([&](std::size_t e) {
      const auto cls = static_cast<std::uint8_t>(e % num_classes_);
      const auto& wait = req_wait_[e];
      assert(!wait.empty());
      wake = std::min(wake, req_master_[port_index(wait.front(), cls)].earliest_ready());
    });
  }
  if (rsp_wait_active_ > 0) {
    rsp_dst_map_.for_each([&](std::size_t d) {
      for (std::uint8_t cls = 0; cls < num_classes_; ++cls) {
        const auto& wait = rsp_wait_[port_index(static_cast<TileId>(d), cls)];
        if (wait.empty()) continue;
        wake = std::min(wake, rsp_master_[port_index(wait.front(), cls)].earliest_ready());
      }
    });
  }
  return wake <= now ? now : wake;
}

bool HierNetwork::busy() const {
  if (acks_active_ != 0) return true;
  for (const auto& q : req_master_) {
    if (!q.empty()) return true;
  }
  for (const auto& q : req_slave_) {
    if (!q.empty()) return true;
  }
  for (const auto& q : rsp_master_) {
    if (!q.empty()) return true;
  }
  return false;
}

void HierNetwork::reset() {
  for (auto& q : req_master_) q.clear();
  for (auto& q : rsp_master_) q.clear();
  for (auto& q : req_slave_) q.clear();
  for (auto& q : req_wait_) q.clear();
  for (auto& q : rsp_wait_) q.clear();
  std::fill(req_master_free_at_.begin(), req_master_free_at_.end(), Cycle{0});
  std::fill(rsp_master_last_push_.begin(), rsp_master_last_push_.end(), kNoCycle);
  std::fill(req_registered_.begin(), req_registered_.end(), std::uint8_t{0});
  std::fill(rsp_registered_.begin(), rsp_registered_.end(), std::uint8_t{0});
  std::fill(rsp_egress_rr_.begin(), rsp_egress_rr_.end(), 0u);
  for (auto& q : acks_) q.clear();
  req_wait_active_ = 0;
  rsp_wait_active_ = 0;
  acks_active_ = 0;
  req_wait_map_.clear_all();
  rsp_dst_map_.clear_all();
  std::fill(rsp_wait_cls_cnt_.begin(), rsp_wait_cls_cnt_.end(), std::uint16_t{0});
  acks_map_.clear_all();
}

}  // namespace tcdm
