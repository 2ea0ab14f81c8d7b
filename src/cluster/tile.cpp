#include "src/cluster/tile.hpp"

#include <cassert>
#include <string>

namespace tcdm {

namespace {
BurstManagerConfig bm_config(const ClusterConfig& cfg) {
  BurstManagerConfig bm;
  bm.grouping_factor = cfg.burst_enabled ? cfg.grouping_factor : 1;
  if (cfg.store_bursts) bm.write_words_per_cycle = cfg.req_grouping_factor;
  return bm;
}
}  // namespace

Tile::Tile(const ClusterConfig& cfg, TileId id, HierNetwork& net, const AddressMap& map,
           Barrier& barrier, StatsRegistry& stats)
    : id_(id), net_(net), map_(map), bm_(bm_config(cfg), map, id) {
  banks_.reserve(cfg.banks_per_tile);
  const std::string prefix = "tile" + std::to_string(id);
  for (unsigned b = 0; b < cfg.banks_per_tile; ++b) {
    banks_.emplace_back(cfg.bank_words);
    banks_.back().attach_stats(stats, prefix + ".bank" + std::to_string(b));
    banks_.back().attach_busy_counter(&busy_banks_);
  }
  bm_.attach_stats(stats, prefix + ".bm");
  cc_ = std::make_unique<CoreComplex>(cfg.spatz_config(), id, cfg.num_cores(), barrier);
  cc_->attach_stats(stats, "cc" + std::to_string(id));
}

bool Tile::try_local_push(unsigned bank_in_tile, const BankReq& req) {
  return banks_.at(bank_in_tile).try_push(req);
}

void Tile::cycle_cores(Cycle now) { cc_->cycle(now, *this); }

void Tile::accept_slave_requests(Cycle now) {
  (void)now;
  const unsigned num_classes = net_.topology().num_classes();
  for (std::uint8_t cls = 0; cls < num_classes; ++cls) {
    if (net_.slave_empty(id_, cls)) continue;
    const TcdmReq& req = net_.slave_front(id_, cls);
    if (req.len > 1) {
      if (bm_.try_accept(req)) (void)net_.slave_pop(id_, cls);
      continue;
    }
    // Narrow remote request: straight to its bank (one combined decode).
    const DecodedAddr dec = map_.decode(req.addr);
    BankReq br;
    br.row = dec.row;
    br.write = req.write;
    br.amo_add = req.amo_add;
    br.wdata = req.wdata;
    br.route.kind = RouteKind::kRemoteNarrow;
    br.route.owner = req.tag.owner;
    br.route.port = req.tag.port;
    br.route.rob_slot = req.tag.rob_slot;
    br.route.id = req.tag.id;
    br.route.src_tile = req.src_tile;
    if (banks_[dec.bank_in_tile].try_push(br)) {
      (void)net_.slave_pop(id_, cls);
    }
  }
}

void Tile::route_bank_responses(Cycle now) {
  const unsigned n = static_cast<unsigned>(banks_.size());
  // Rotating drain start, derived from the cycle number (not a call count)
  // so quiescent cycles can be skipped without shifting the rotation.
  const unsigned drain_rr = static_cast<unsigned>(now % n);
  for (unsigned i = 0; i < n; ++i) {
    const unsigned b = (drain_rr + i) % n;
    SpmBank& bank = banks_[b];
    if (!bank.resp_ready()) continue;
    const BankResp& resp = bank.resp_front();
    switch (resp.route.kind) {
      case RouteKind::kLocalVector:
      case RouteKind::kLocalScalar:
        cc_->deliver_local(resp, now);
        (void)bank.resp_pop();
        break;
      case RouteKind::kBurstSegment:
        bm_.fill(resp.route, resp.data);
        (void)bank.resp_pop();
        break;
      case RouteKind::kRemoteNarrow: {
        const TileId requester = resp.route.src_tile;
        if (resp.route.write) {
          // Posted store: out-of-band completion credit, no response beat.
          net_.send_store_ack(id_, requester, resp.route.owner, now);
          (void)bank.resp_pop();
          break;
        }
        const std::uint8_t cls = net_.topology().class_of(id_, requester);
        if (!net_.can_send_rsp(id_, cls, now)) break;  // bank output stalls
        TcdmResp out;
        out.num_words = 1;
        out.data[0] = resp.data;
        out.dst_tile = requester;
        out.tag.owner = resp.route.owner;
        out.tag.port = resp.route.port;
        out.tag.rob_slot = resp.route.rob_slot;
        out.tag.id = resp.route.id;
        net_.send_rsp(id_, out, now);
        (void)bank.resp_pop();
        break;
      }
    }
  }
}

void Tile::emit_burst_beats(Cycle now) {
  // Each completed merge slot becomes one wide beat on its response port.
  // A blocked class only defers its own slots.
  const unsigned max_attempts = 64;
  unsigned consecutive_defers = 0;
  for (unsigned i = 0; i < max_attempts; ++i) {
    const auto slot = bm_.next_ready_slot();
    if (!slot.has_value()) return;
    const TileId requester = bm_.slot_requester(*slot);
    const std::uint8_t cls = net_.topology().class_of(id_, requester);
    if (net_.can_send_rsp(id_, cls, now)) {
      net_.send_rsp(id_, bm_.take_beat(*slot), now);
      consecutive_defers = 0;
    } else {
      // Its class port is busy: the slot stays ready and the rotation moves
      // on, so other classes go on.
      // A class blocked at cycle `now` stays blocked for the rest of this
      // call (sends only push free_at further out), and the ready set only
      // shrinks on sends — so a full no-send pass over the ready slots
      // proves every remaining attempt would defer too. Collapse that tail
      // into the equivalent rr_ rotation (identical future arbitration).
      if (++consecutive_defers >= bm_.ready_count()) {
        bm_.skip_rotation((max_attempts - 1 - i) % consecutive_defers);
        return;
      }
    }
  }
}

void Tile::cycle_memory(Cycle now) {
  accept_slave_requests(now);
  bm_.issue(banks_);
  for (SpmBank& bank : banks_) {
    if (bank.has_request()) bank.cycle();  // cycle() is a no-op otherwise
  }
  // Alternate response priority between narrow bank traffic and merged
  // burst beats so neither starves the shared response ports. Odd/even on
  // the cycle number, so skipped quiescent cycles keep the alternation.
  if ((now & 1) != 0) {
    emit_burst_beats(now);
    route_bank_responses(now);
  } else {
    route_bank_responses(now);
    emit_burst_beats(now);
  }
}

bool Tile::memory_busy() const {
  // busy_banks_ is maintained by the banks themselves on their idle<->busy
  // transitions, so this probe (run for every tile every cycle) touches no
  // bank state.
  return busy_banks_ != 0 || bm_.busy();
}

bool Tile::memory_quiescent() const {
  if (memory_busy()) return false;
  const unsigned num_classes = net_.topology().num_classes();
  for (std::uint8_t cls = 0; cls < num_classes; ++cls) {
    if (!net_.slave_empty(id_, cls)) return false;
  }
  return true;
}

void Tile::reset() {
  for (SpmBank& bank : banks_) bank.reset();
  busy_banks_ = 0;
  bm_.reset();
  cc_->reset();
}

}  // namespace tcdm
