// Burst Manager (paper §III-B): the tile-side adapter between the burst
// protocol and plain single-word SPM banks.
//
//  * Request side: accepts burst read requests popped off the tile's slave
//    ports, converts each into parallel 32-bit bank requests ("the SPM banks
//    process requests simultaneously"), holding overflow bursts in a small
//    FIFO when several arrive together.
//  * Response side: collects the banks' single-word responses in per-segment
//    merge buffers — one segment covers GF consecutive banks ("this block is
//    needed for every GF number of SPM banks") — and emits one GF-word wide
//    beat per completed segment onto the widened response channel, each on
//    its requester's class port (emit_beats).
//
// A burst of len L therefore produces ceil(L / GF) response beats instead of
// L narrow beats, which is where the bandwidth gain comes from. Merge slots
// hold their data until the beat is actually sent, so response-channel
// backpressure propagates into burst issue (no free slot -> head burst
// stalls), as in the RTL.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/active_bitmap.hpp"
#include "src/common/bounded_queue.hpp"
#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/interconnect/network.hpp"
#include "src/memory/address_map.hpp"
#include "src/memory/mem_types.hpp"

namespace tcdm {

class SpmBank;

class BurstManager {
 public:
  /// Pending burst requests held at the manager.
  static constexpr unsigned kFifoDepth = 4;
  /// Concurrent in-flight segment (merge) buffers.
  static constexpr unsigned kMergeSlots = 16;

  /// `grouping_factor`: words merged per response beat (GF).
  /// `write_words_per_cycle` (store-burst extension): a write burst's
  /// payload arrives over the request channel at this many words per
  /// cycle, so its bank writes issue at the same rate. Read bursts are
  /// unaffected (the request is a single header beat; banks respond in
  /// parallel by design).
  BurstManager(unsigned grouping_factor, unsigned write_words_per_cycle, const AddressMap& map,
               TileId tile);

  void attach_stats(StatsRegistry& reg, const std::string& prefix);

  /// Accept a burst request (req.len > 1) from a slave port.
  /// Returns false when the internal FIFO is full (caller leaves the request
  /// queued upstream — backpressure).
  [[nodiscard]] bool try_accept(const TcdmReq& req);

  /// Issue phase: push as many pending bank requests as bank input queues
  /// and free merge slots allow. Bursts issue in FIFO order (the arbiter of
  /// the paper); a burst is retired from the FIFO once fully issued.
  void issue(std::vector<SpmBank>& banks);

  /// A bank response tagged kBurstSegment lands here. Always succeeds (the
  /// merge slot was reserved at issue).
  void fill(const BankRoute& route, Word data);

  /// Emission: send completed segments as wide beats, each on its
  /// requester's response class port at `net`, in rotating slot order. A
  /// busy class port only defers its own slots; they stay ready for a later
  /// call. At most 64 slot visits per call.
  void emit_beats(HierNetwork& net, Cycle now);

  /// O(1): live occupancy counts make this a pair of integer tests, not a
  /// slot sweep (it runs in every tile's quiescence check every cycle).
  [[nodiscard]] bool busy() const noexcept { return !pending_.empty() || used_slots_ != 0; }

  /// Back to the just-constructed state (empty FIFO, all slots free).
  void reset();

 private:
  enum class SlotState : std::uint8_t { kFree, kFilling, kReady };

  struct ActiveBurst {
    TcdmReq req;
    unsigned next_word = 0;      // first not-yet-issued word
    unsigned slot_end = 0;       // first word NOT covered by cur_slot
    std::int16_t cur_slot = -1;  // merge slot of the segment being issued
  };

  struct MergeSlot {
    SlotState state = SlotState::kFree;
    TileId requester = 0;
    std::uint32_t burst_id = 0;
    std::uint8_t first_offset = 0;  // word offset (within burst) of data[0]
    std::uint8_t expected = 0;
    std::uint8_t received = 0;
    std::array<Word, kMaxGroupingFactor> data{};
  };

  [[nodiscard]] std::int16_t alloc_slot();
  /// Next completed merge slot in rotating order, or -1.
  [[nodiscard]] int next_ready_slot();
  /// Build the wide response beat and free the slot.
  [[nodiscard]] TcdmResp take_beat(unsigned idx);

  unsigned grouping_factor_;
  unsigned write_words_per_cycle_;
  const AddressMap& map_;
  TileId tile_;
  BoundedQueue<ActiveBurst> pending_;
  std::vector<MergeSlot> slots_;
  unsigned rr_ = 0;          // rotating start for next_ready_slot
  unsigned used_slots_ = 0;  // slots not kFree (O(1) busy())
  // Slot-state bitmaps, maintained at every state transition: alloc_slot and
  // next_ready_slot become a couple of word operations instead of linear
  // slot scans (next_ready_slot was the top profile entry on burst-heavy
  // workloads — emit_beats polls it up to 64x per tile-cycle).
  ActiveBitmap free_map_;   // bit set <=> slot kFree
  ActiveBitmap ready_map_;  // bit set <=> slot kReady
  Counter bursts_accepted_;
  Counter bank_reqs_issued_;
  Counter beats_merged_;
  Counter fifo_full_events_;
};

}  // namespace tcdm
