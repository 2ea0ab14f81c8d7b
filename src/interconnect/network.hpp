// Hierarchical request/response interconnect.
//
// Structure per tile (mirroring the MemPool-style RTL):
//  * one *request master port* per destination class — a FIFO that accepts at
//    most one request per cycle (this serialization of K parallel VLSU
//    requests into one narrow port is exactly the baseline bottleneck the
//    paper attacks) and imposes the class's one-way pipe latency;
//  * one *request slave queue* per (tile, class) — the ingress at the
//    destination tile, refilled at one request per cycle by an FCFS egress
//    arbiter over all master ports currently heading there;
//  * the mirrored *response* network, whose beats carry up to GF (grouping
//    factor) words — the paper's widened response channel.
//
// Per-core channel width (paper eq. 3): a tile injects at most ONE remote
// request per cycle and retires at most ONE response beat per cycle across
// *all* classes — the CC's narrow request channel and its (GF-wide) response
// channel. This is what serializes a K-element remote vector access to
// 4 B/cycle in the baseline and lifts it to GF x 4 B/cycle with bursts,
// independent of how the traffic spreads over destination classes. The
// response-injection side at the serving tile is gated symmetrically.
//
// Backpressure: full slave queues stall the egress arbiter, full master
// queues reject sends (callers retry), and the whole chain ends at the SPM
// bank output registers. Head-of-line blocking in the port FIFOs is modeled,
// as in the RTL.
//
// Every send_* call applies its effects at once — master port, destination
// wait-list, store-ack credit and counters. The cluster steps tiles in
// ascending index order, so wait-lists fill in that order (invariant D1,
// docs/CONCURRENCY.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/active_bitmap.hpp"
#include "src/common/bounded_queue.hpp"
#include "src/common/ring_deque.hpp"
#include "src/common/stats.hpp"
#include "src/common/timed_queue.hpp"
#include "src/common/types.hpp"
#include "src/interconnect/topology.hpp"
#include "src/memory/mem_types.hpp"

namespace tcdm {

/// Consumer of delivered response beats (implemented by the cluster, which
/// forwards to the requesting Core Complex). Delivery always succeeds: every
/// response fills a pre-allocated slot (ROB entry, scalar pending register or
/// store counter), so the requester can always sink it.
class RspSink {
 public:
  virtual ~RspSink() = default;
  virtual void deliver_rsp(const TcdmResp& rsp, Cycle now) = 0;
};

class HierNetwork {
 public:
  /// Master-port FIFO slots beyond the class's pipe latency (the port's
  /// output register stages).
  static constexpr unsigned kMasterExtraSlots = 2;
  /// Request slave queue depth per reachable (tile, class).
  static constexpr unsigned kSlaveDepth = 4;

  /// `req_grouping_factor`: request-channel data width in words (the
  /// store-burst extension). A write burst of L words occupies its master
  /// port for ceil(L / req_grouping_factor) cycles, so at 1 a store burst
  /// saves nothing over narrow stores — the paper's argument for bursting
  /// loads only.
  HierNetwork(const Topology& topo, unsigned req_grouping_factor, StatsRegistry& stats);

  [[nodiscard]] const Topology& topology() const noexcept { return topo_; }

  // ---- request ingress (cores stage; at most one per (src, class) per cycle) ----
  // One request per (tile, class) master port per cycle. A K-element
  // unit-stride beat targets a single tile, hence a single class port, so
  // baseline remote traffic serializes to 4 B/cycle (eq. 3) while streams
  // to different hierarchy branches may proceed in parallel, as the RTL's
  // per-class physical ports allow. Write bursts additionally hold the port
  // while their payload streams out (see send_req). Inline: this gate runs
  // on every dispatch attempt of every staged item.
  [[nodiscard]] bool can_send_req(TileId src, std::uint8_t cls, Cycle now) const noexcept {
    const std::size_t p = port_index(src, cls);
    return now >= req_master_free_at_[p] && !req_master_[p].full();
  }
  void send_req(TileId src, TileId dst, const TcdmReq& req, Cycle now);

  // ---- response ingress (memory stage; one beat per (responder, class) per cycle) ----
  // Responder side: one beat per (tile, class) per cycle — each class has
  // its own response wires in the RTL. The CC-side 1-beat/cycle gate is at
  // the requester's egress (see cycle()). Asked for the destination tile,
  // the network looks up the class port itself, as send_rsp does.
  [[nodiscard]] bool can_send_rsp(TileId responder, TileId dst, Cycle now) const noexcept {
    const std::size_t p = port_index(responder, topo_.class_of(responder, dst));
    return rsp_master_last_push_[p] != now && !rsp_master_[p].full();
  }
  void send_rsp(TileId responder, const TcdmResp& rsp, Cycle now);

  // ---- store acknowledgements ----
  // TCDM stores are posted and receive no data response in the RTL; the
  // core's outstanding-store counter is decremented by a credit signal.
  // Modeled as an out-of-band channel with the class's response latency
  // that does not occupy response-beat bandwidth. Always accepted.
  void send_store_ack(TileId responder, TileId requester, ReqOwner owner, Cycle now);

  // ---- network stage: move one request per (dst, class) into its slave
  //      queue and deliver one response beat per (requester, class) ----
  void cycle(Cycle now, RspSink& sink);

  // ---- request egress: slave queues drained by the destination tile ----
  [[nodiscard]] bool slave_empty(TileId dst, std::uint8_t cls) const {
    return req_slave_[port_index(dst, cls)].empty();
  }
  [[nodiscard]] const TcdmReq& slave_front(TileId dst, std::uint8_t cls) const {
    return req_slave_[port_index(dst, cls)].front();
  }
  TcdmReq slave_pop(TileId dst, std::uint8_t cls) {
    return req_slave_[port_index(dst, cls)].pop();
  }

  /// Slots of the request and of the response wait-list of (dst, cls): the
  /// number of other tiles whose traffic to dst travels in class cls.
  [[nodiscard]] std::size_t wait_capacity(TileId dst, std::uint8_t cls) const {
    return req_wait_[port_index(dst, cls)].capacity();
  }

  /// Any transaction still inside the network (drain check for barriers/tests).
  [[nodiscard]] bool busy() const;

  /// Event-driven stepping (docs/ARCHITECTURE.md, EV1/EV3): earliest cycle at
  /// which this component could act or change observable state, assuming no
  /// new sends arrive — `now` when it has work this cycle, kNoCycle when it
  /// is fully drained. In-flight pipe entries report their head's ready time
  /// (FCFS: nothing behind a waitlist head can move before it). Requests
  /// parked in slave queues and full-slave backpressure (the
  /// egress_blocked_cycles counter) are intentionally NOT reported here: a
  /// non-empty slave queue keeps the destination tile non-quiescent, so the
  /// cluster never consults the network in those states (EV3 — some other
  /// component stays awake).
  [[nodiscard]] Cycle earliest_wakeup(Cycle now) const;

  /// Back to the just-constructed state: all queues empty, ports free,
  /// wait-lists and credits cleared, activity tracking zeroed. Counters live
  /// in the StatsRegistry and are reset by its owner.
  void reset();

 private:
  [[nodiscard]] std::size_t port_index(TileId tile, std::uint8_t cls) const noexcept {
    return static_cast<std::size_t>(tile) * num_classes_ + cls;
  }
  void register_req_head(TileId src, std::uint8_t cls);
  void register_rsp_head(TileId responder, std::uint8_t cls);

  struct ReqEntry {
    TcdmReq req;
    TileId dst = 0;
  };

  const Topology& topo_;
  unsigned req_grouping_factor_;
  unsigned num_classes_ = 0;
  unsigned num_tiles_ = 0;

  // Request path.
  std::vector<TimedQueue<ReqEntry>> req_master_;      // [src * C + cls]
  std::vector<Cycle> req_master_free_at_;             // first cycle the port is free
                                                      // (write bursts hold it for
                                                      // ceil(len/req_gf) cycles)
  std::vector<std::uint8_t> req_registered_;          // head present in a waitlist
  std::vector<BoundedQueue<std::uint32_t>> req_wait_;  // [dst * C + cls] -> src ids
  std::vector<BoundedQueue<TcdmReq>> req_slave_;       // [dst * C + cls]

  // Response path.
  std::vector<TimedQueue<TcdmResp>> rsp_master_;       // [responder * C + cls]
  std::vector<Cycle> rsp_master_last_push_;
  std::vector<std::uint8_t> rsp_registered_;
  std::vector<BoundedQueue<std::uint32_t>> rsp_wait_;  // [requester * C + cls] -> responder ids

  // CC response channel gating happens at the requester egress (one beat
  // per cycle across classes); request serialization is per class port.
  std::vector<unsigned> rsp_egress_rr_;  // [requester]: rotating class priority

  // Out-of-band store-ack credits, per requester tile (ready_at, owner).
  struct AckEntry {
    Cycle ready_at = 0;
    ReqOwner owner = ReqOwner::kScalar;
  };
  // RingDeque, not std::deque: credit counts are bounded only by total
  // network buffering, and deque block churn was measurable on the MP128
  // hot path; the ring grows once and is allocation-free thereafter.
  std::vector<RingDeque<AckEntry>> acks_;

  // Activity tracking so the per-cycle egress scans and quiescence/wakeup
  // probes cost O(active ports), not O(tiles x classes). The counts give the
  // O(1) idle gate; the bitmaps enumerate exactly the non-empty wait-lists
  // (req: per egress port; rsp: per destination tile, with a per-dst count
  // of non-empty class lists; acks: per requester tile) in the same
  // ascending order the old full scans used.
  std::size_t req_wait_active_ = 0;
  std::size_t rsp_wait_active_ = 0;
  std::size_t acks_active_ = 0;
  ActiveBitmap req_wait_map_;                     // egress port -> wait non-empty
  ActiveBitmap rsp_dst_map_;                      // dst tile -> any class wait non-empty
  std::vector<std::uint16_t> rsp_wait_cls_cnt_;   // [dst]: non-empty class waits
  ActiveBitmap acks_map_;                         // requester tile -> credits pending

  // Statistics.
  Counter req_sent_;
  Counter req_words_;
  Counter rsp_beats_;
  Counter rsp_words_;
  Counter req_hop_words_;   // words x pipe stages traversed (energy model)
  Counter rsp_hop_words_;
  Counter egress_blocked_;  // cycles an egress had traffic but the slave queue was full
};

}  // namespace tcdm
