#include "src/burst/burst_manager.hpp"

#include <cassert>

#include "src/memory/spm_bank.hpp"

namespace tcdm {

namespace {
constexpr unsigned kFifoDepth = 4;  // pending burst requests held at the manager
}  // namespace

BurstManager::BurstManager(const BurstManagerConfig& cfg, const AddressMap& map, TileId tile)
    : cfg_(cfg), map_(map), tile_(tile), pending_(kFifoDepth), slots_(cfg.merge_slots) {
  assert(cfg_.grouping_factor >= 1 && cfg_.grouping_factor <= kMaxGroupingFactor);
  assert(cfg_.merge_slots >= 1);
  free_map_.init(slots_.size());
  ready_map_.init(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) free_map_.set(i);
}

void BurstManager::attach_stats(StatsRegistry& reg, const std::string& prefix) {
  static constexpr std::string_view kStats[] = {".bursts_accepted", ".bank_reqs_issued",
                                                ".beats_merged", ".fifo_full_events"};
  reg.block(prefix, kStats,
            {&bursts_accepted_, &bank_reqs_issued_, &beats_merged_, &fifo_full_events_});
}

bool BurstManager::try_accept(const TcdmReq& req) {
  assert(req.len > 1);
  assert(req.stride >= 1);
  // A legal burst never crosses the tile boundary (Burst Sender invariant).
  assert(map_.bank_in_tile(req.addr) + (req.len - 1u) * req.stride <
         map_.banks_per_tile());
  assert(map_.tile_of(req.addr) == tile_);
  if (!pending_.try_push(ActiveBurst{req, 0, 0, -1})) {
    fifo_full_events_.inc();
    return false;
  }
  bursts_accepted_.inc();
  return true;
}

std::int16_t BurstManager::alloc_slot() {
  // Lowest free slot, exactly as the former linear scan chose it.
  return static_cast<std::int16_t>(free_map_.first_set_at_or_after(0));
}

void BurstManager::issue(std::vector<SpmBank>& banks) {
  // Issue the FIFO head; if it completes this cycle, continue with the next
  // burst (distinct GF-segments operate in parallel in the RTL).
  unsigned write_budget = cfg_.write_words_per_cycle;
  while (!pending_.empty()) {
    ActiveBurst& ab = pending_.front();
    const unsigned len = ab.req.len;
    const unsigned stride = ab.req.stride;
    const unsigned first_bank = map_.bank_in_tile(ab.req.addr);

    while (ab.next_word < len) {
      const unsigned bank_in_tile = first_bank + ab.next_word * stride;

      if (ab.req.write) {
        // Write burst (store-burst extension): fan the payload out to the
        // banks at the request-channel data rate; each word is acknowledged
        // out of band like a narrow store, so no merge slot is involved.
        if (write_budget == 0) return;  // payload rate limit reached
        BankReq br;
        br.row = map_.row_of(ab.req.addr + ab.next_word * stride * kWordBytes);
        br.write = true;
        br.wdata = ab.req.burst_wdata[ab.next_word];
        br.route.kind = RouteKind::kRemoteNarrow;
        br.route.owner = ReqOwner::kVecNarrow;
        br.route.write = true;
        br.route.src_tile = ab.req.src_tile;
        if (!banks[bank_in_tile].try_push(br)) return;  // bank busy: retry next cycle
        bank_reqs_issued_.inc();
        --write_budget;
        ++ab.next_word;
        continue;
      }

      // Entering a new GF-segment (or the burst's first word): reserve a
      // merge buffer sized to the elements this segment will carry. With a
      // stride, consecutive elements are `stride` banks apart, so one
      // GF-bank segment holds ceil(room_banks / stride) of them — at
      // stride >= GF the merge degrades to one word per beat (the physical
      // limit of per-GF-bank-group merging).
      if (ab.next_word >= ab.slot_end) {
        const std::int16_t slot = alloc_slot();
        if (slot < 0) return;  // merge buffers exhausted: stall issue
        ab.cur_slot = slot;
        MergeSlot& ms = slots_[slot];
        const unsigned room_banks =
            cfg_.grouping_factor - bank_in_tile % cfg_.grouping_factor;
        const unsigned seg_room = (room_banks + stride - 1) / stride;
        ms.state = SlotState::kFilling;
        free_map_.clear(static_cast<std::size_t>(slot));
        ++used_slots_;
        ms.requester = ab.req.src_tile;
        ms.burst_id = ab.req.tag.id;
        ms.first_offset = static_cast<std::uint8_t>(ab.next_word);
        ms.expected = static_cast<std::uint8_t>(
            std::min<unsigned>(seg_room, len - ab.next_word));
        ms.received = 0;
        ab.slot_end = ab.next_word + ms.expected;
      }

      BankReq br;
      br.row = map_.row_of(ab.req.addr + ab.next_word * stride * kWordBytes);
      br.write = false;
      br.route.kind = RouteKind::kBurstSegment;
      br.route.seg = static_cast<std::uint8_t>(ab.cur_slot);
      br.route.word_offset = static_cast<std::uint8_t>(ab.next_word);
      br.route.id = ab.req.tag.id;
      br.route.src_tile = ab.req.src_tile;
      if (!banks[bank_in_tile].try_push(br)) return;  // bank busy: retry next cycle
      bank_reqs_issued_.inc();
      ++ab.next_word;
    }
    (void)pending_.pop();  // fully issued
  }
}

void BurstManager::fill(const BankRoute& route, Word data) {
  assert(route.seg < slots_.size());
  MergeSlot& ms = slots_[route.seg];
  assert(ms.state == SlotState::kFilling);
  assert(ms.burst_id == route.id);
  const unsigned idx = route.word_offset - ms.first_offset;
  assert(idx < ms.expected);
  ms.data[idx] = data;
  if (++ms.received == ms.expected) {
    ms.state = SlotState::kReady;
    ready_map_.set(route.seg);
  }
}

std::optional<unsigned> BurstManager::next_ready_slot() {
  // First ready slot at or after rr_, wrapping — the same rotation the
  // former linear scan produced, in O(bitmap words).
  int idx = ready_map_.first_set_at_or_after(rr_);
  if (idx < 0) idx = ready_map_.first_set_at_or_after(0);
  if (idx < 0) return std::nullopt;
  rr_ = (static_cast<unsigned>(idx) + 1) % static_cast<unsigned>(slots_.size());
  return static_cast<unsigned>(idx);
}

TileId BurstManager::slot_requester(unsigned idx) const {
  assert(slots_.at(idx).state == SlotState::kReady);
  return slots_[idx].requester;
}

TcdmResp BurstManager::take_beat(unsigned idx) {
  MergeSlot& ms = slots_.at(idx);
  assert(ms.state == SlotState::kReady);
  TcdmResp resp;
  resp.num_words = ms.expected;
  resp.data = ms.data;
  resp.dst_tile = ms.requester;
  resp.tag.owner = ReqOwner::kBurst;
  resp.tag.id = ms.burst_id;
  resp.tag.word_offset = ms.first_offset;
  ms = MergeSlot{};  // free
  ready_map_.clear(idx);
  free_map_.set(idx);
  --used_slots_;
  beats_merged_.inc();
  return resp;
}

void BurstManager::reset() {
  pending_.clear();
  for (MergeSlot& ms : slots_) ms = MergeSlot{};
  rr_ = 0;
  used_slots_ = 0;
  ready_map_.clear_all();
  free_map_.clear_all();
  for (std::size_t i = 0; i < slots_.size(); ++i) free_map_.set(i);
}

}  // namespace tcdm
