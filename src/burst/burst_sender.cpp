#include "src/burst/burst_sender.hpp"

#include <bitset>
#include <cassert>
#include <limits>

#include "src/cluster/cluster_config.hpp"

namespace tcdm {

BurstSender::BurstSender(const ClusterConfig& cfg)
    : bursts_(cfg.burst_enabled),
      strided_bursts_(cfg.strided_bursts),
      store_bursts_(cfg.store_bursts),
      max_burst_len_(cfg.effective_max_burst_len()),
      // can_accept_beat() is checked before staging a beat of up to K words.
      capacity_items_(std::size_t{kStagingBeats - 1} * cfg.vlsu_ports),
      staging_(capacity_items_ + kMaxPorts),
      table_(kTableSize) {
  assert(max_burst_len_ <= kMaxBurstWords);
  assert(staging_.capacity() <= std::numeric_limits<std::uint16_t>::max());
  free_ids_.reserve(kTableSize);
  for (unsigned i = 0; i < kTableSize; ++i) free_ids_.push_back(kTableSize - 1 - i);
}

void BurstSender::reset() {
  staging_.clear();
  class_staged_.fill(0);
  for (TableEntry& e : table_) e = TableEntry{};
  free_ids_.clear();
  for (unsigned i = 0; i < kTableSize; ++i) free_ids_.push_back(kTableSize - 1 - i);
  live_bursts_ = 0;
}

void BurstSender::attach_stats(StatsRegistry& reg, const std::string& prefix) {
  static constexpr std::string_view kStats[] = {
      ".bursts_sent",         ".burst_words", ".strided_bursts_sent", ".store_bursts_sent",
      ".narrow_remote_words", ".local_words", ".tile_boundary_splits"};
  reg.block(prefix, kStats,
            {&bursts_sent_, &burst_words_, &strided_bursts_sent_, &store_bursts_sent_,
             &narrow_sent_, &local_words_, &coalesce_splits_});
}

std::uint32_t BurstSender::alloc_burst() {
  assert(!free_ids_.empty());
  const std::uint32_t id = free_ids_.back();
  free_ids_.pop_back();
  ++live_bursts_;
  return id;
}

bool BurstSender::try_extend_tail(const WordAccess* run, unsigned n, Addr base, TileId dst,
                                  unsigned stride, bool write, const AddressMap& map) {
  if (staging_.empty()) return false;
  PendingItem& tail = staging_.back();
  if (!tail.is_burst || tail.route.dst_tile != dst) return false;
  const Addr tail_base = tail.access.addr;
  if (tail.stride != stride || tail.access.write != write) return false;
  if (tail_base + static_cast<Addr>(tail.len) * stride * kWordBytes != base) return false;
  if (tail.len + n > max_burst_len_) return false;
  // The extended span's last element must still land inside the tile.
  if (map.bank_in_tile(tail_base) + (tail.len + n - 1) * stride >= map.banks_per_tile()) {
    return false;
  }
  if (write) {
    for (unsigned i = 0; i < n; ++i) tail.wdata[tail.len + i] = run[i].wdata;
  } else {
    TableEntry& e = table_[tail.access.tag.id];
    assert(e.valid);
    for (unsigned i = 0; i < n; ++i) {
      e.words[tail.len + i] = BurstWord{run[i].tag.port, run[i].tag.rob_slot};
    }
    e.len = static_cast<std::uint8_t>(tail.len + n);
  }
  tail.len = static_cast<std::uint8_t>(tail.len + n);
  return true;
}

void BurstSender::push_staged(const PendingItem& item) {
  const bool ok = staging_.try_push(item);
  assert(ok && "BurstSender staging capacity bound violated");
  (void)ok;
  if (!item.route.local) ++class_staged_[item.route.cls];
}

void BurstSender::accept_beat(const BeatRequest& beat, const AddressMap& map,
                              const Topology& topo, TileId home_tile) {
  assert(can_accept_beat());
  const auto push_narrow = [&](const WordAccess& w) {
    PendingItem item;
    item.route = route_word(map, topo, home_tile, w.addr);
    item.access = w;
    push_staged(item);
  };

  // A 1-word-stride vlse32 is semantically a vle32; the extension detects
  // it and rides the plain unit-stride burst path (the paper's baseline
  // design keys on the VLE opcode only). A strided burst needs a positive
  // word-aligned stride that fits the request's 8-bit stride field and
  // keeps two elements inside one tile's bank span.
  const unsigned stride_words =
      beat.stride > 0 && beat.stride % static_cast<std::int32_t>(kWordBytes) == 0
          ? static_cast<unsigned>(beat.stride) / kWordBytes
          : 0;
  const bool unit_load = bursts_ && beat.form == Form::kVLoad;
  const bool strided_load = bursts_ && strided_bursts_ && beat.form == Form::kVLoadS &&
                            stride_words >= 1 && stride_words <= 0xff &&
                            stride_words < map.banks_per_tile();
  const bool unit_store = bursts_ && store_bursts_ && beat.form == Form::kVStore;
  if (!unit_load && !strided_load && !unit_store) {
    for (const WordAccess& w : beat.words) push_narrow(w);
    return;
  }
  const unsigned stride = strided_load ? stride_words : 1;
  const bool write = unit_store;

  // Burst-eligible: the words are equidistant addresses in element order.
  // Split into runs that stay within one tile (and one max-length burst).
  std::size_t i = 0;
  const std::size_t n = beat.words.size();
  bool split_seen = false;
  while (i < n) {
    const Addr base = beat.words[i].addr;
    const DecodedAddr dec = map.decode(base);
    const TileId dst = dec.tile;
    std::size_t run = 1;
    while (i + run < n && run < max_burst_len_ &&
           dec.bank_in_tile + run * stride < map.banks_per_tile()) {
      assert(beat.words[i + run].addr == base + run * stride * kWordBytes);
      ++run;
    }
    if (i + run < n) split_seen = true;

    if (dst == home_tile || run == 1) {
      // Local runs use the full-width tile crossbar; single words stay narrow.
      for (std::size_t j = 0; j < run; ++j) push_narrow(beat.words[i + j]);
    } else if (try_extend_tail(&beat.words[i], static_cast<unsigned>(run), base, dst,
                               stride, write, map)) {
      // Coalesced into the still-staged previous burst (max_burst_len > K).
    } else if (!write && free_ids_.empty()) {
      // Table exhausted: degrade gracefully to narrow requests. Performance
      // falls back to baseline behaviour; correctness is unaffected.
      for (std::size_t j = 0; j < run; ++j) push_narrow(beat.words[i + j]);
    } else {
      PendingItem item;
      item.is_burst = true;
      item.access.addr = base;
      item.access.write = write;
      item.access.tag.owner = ReqOwner::kBurst;
      item.len = static_cast<std::uint8_t>(run);
      item.stride = static_cast<std::uint8_t>(stride);
      item.route.dst_tile = dst;
      item.route.cls = topo.class_of(home_tile, dst);
      if (write) {
        // Write bursts carry their payload and need no reorder table: the
        // serving banks acknowledge each word out of band.
        for (std::size_t j = 0; j < run; ++j) item.wdata[j] = beat.words[i + j].wdata;
      } else {
        item.access.tag.id = alloc_burst();
        TableEntry& e = table_[item.access.tag.id];
        e.valid = true;
        e.len = static_cast<std::uint8_t>(run);
        e.resolved = 0;
        for (std::size_t j = 0; j < run; ++j) {
          e.words[j] = BurstWord{beat.words[i + j].tag.port, beat.words[i + j].tag.rob_slot};
        }
      }
      push_staged(item);
    }
    i += run;
  }
  if (split_seen) coalesce_splits_.inc();
}

bool BurstSender::try_send(const PendingItem& item, Cycle now, TileServices& tile) {
  if (!item.is_burst) {
    if (!tile.send_word(item.route, item.access, now)) return false;
    (item.route.local ? local_words_ : narrow_sent_).inc();
    return true;
  }
  const TileId home = tile.tile_id();
  HierNetwork& net = tile.net();
  if (!net.can_send_req(home, item.route.cls, now)) return false;
  TcdmReq req;
  req.src_tile = home;
  req.addr = item.access.addr;
  req.len = item.len;
  req.stride = item.stride;
  req.write = item.access.write;
  req.tag = item.access.tag;
  if (req.write) req.burst_wdata = item.wdata;
  net.send_req(home, item.route.dst_tile, req, now);
  bursts_sent_.inc();
  burst_words_.inc(item.len);
  if (item.stride > 1) strided_bursts_sent_.inc();
  if (req.write) store_bursts_sent_.inc();
  return true;
}

void BurstSender::dispatch(Cycle now, TileServices& tile) {
  // Every staged item whose route is open gets one attempt per cycle, in
  // staging order; items whose port or bank is busy stay for the next cycle.
  // Later items may bypass blocked ones (the per-port ROBs make retirement
  // order-independent; kernels never issue overlapping same-address accesses
  // inside this small window).
  //
  // A class port takes at most one request per cycle, and once it has sent
  // or refused it stays closed for the rest of this call: send_req() sets
  // its free-at cycle past `now`, and nothing drains a master port during
  // the core phase. So only the first staged item of each class is tried.
  // Local words each get their own attempt at their bank.
  const std::size_t staged = staging_.size();
  std::size_t open_left = staged;  // unvisited items whose route is open
  std::bitset<kMaxClasses> closed;
  std::size_t sent = 0;
  std::size_t last_sent = 0;
  for (std::size_t k = 0; k < staged && open_left > 0; ++k) {
    PendingItem& item = staging_.at(k);
    const WordRoute& route = item.route;
    if (route.local) {
      --open_left;
    } else {
      if (closed[route.cls]) continue;
      closed.set(route.cls);
      assert(open_left >= class_staged_[route.cls]);
      open_left -= class_staged_[route.cls];
    }
    if (!try_send(item, now, tile)) continue;
    if (!route.local) --class_staged_[route.cls];
    item.sent = true;
    ++sent;
    last_sent = k;
  }
  if (sent == 0) return;

  // Close the gaps from the back: the unsent items in front of the last
  // sent one shift up, in order, and the front `sent` slots are dropped.
  std::size_t dst = last_sent;
  for (std::size_t k = last_sent; k-- > 0;) {
    PendingItem& item = staging_.at(k);
    if (!item.sent) staging_.at(dst--) = item;
  }
  staging_.drop_front(sent);
}

BurstSender::BurstWord BurstSender::lookup(std::uint32_t id, unsigned word_offset) const {
  const TableEntry& e = table_.at(id);
  assert(e.valid && word_offset < e.len);
  return e.words[word_offset];
}

void BurstSender::note_resolved(std::uint32_t id, unsigned n) {
  TableEntry& e = table_.at(id);
  assert(e.valid);
  e.resolved = static_cast<std::uint8_t>(e.resolved + n);
  assert(e.resolved <= e.len);
  if (e.resolved == e.len) {
    e.valid = false;
    free_ids_.push_back(id);
    assert(live_bursts_ > 0);
    --live_bursts_;
  }
}

}  // namespace tcdm
