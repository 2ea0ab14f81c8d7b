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
//    beat per completed segment onto the widened response channel.
//
// A burst of len L therefore produces ceil(L / GF) response beats instead of
// L narrow beats, which is where the bandwidth gain comes from. Merge slots
// hold their data until the beat is actually sent, so response-channel
// backpressure propagates into burst issue (no free slot -> head burst
// stalls), as in the RTL.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/active_bitmap.hpp"
#include "src/common/bounded_queue.hpp"
#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/memory/address_map.hpp"
#include "src/memory/mem_types.hpp"

namespace tcdm {

class SpmBank;

struct BurstManagerConfig {
  unsigned grouping_factor = 4;  // words merged per response beat (GF)
  unsigned merge_slots = 16;     // concurrent in-flight segment buffers
  /// Store-burst extension: a write burst's payload arrives over the request
  /// channel at req_grouping_factor words/cycle, so bank writes are issued
  /// at the same rate. Read bursts are unaffected (the request is a single
  /// header beat; banks respond in parallel by design).
  unsigned write_words_per_cycle = kMaxGroupingFactor;
};

class BurstManager {
 public:
  BurstManager(const BurstManagerConfig& cfg, const AddressMap& map, TileId tile);

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

  // ---- emission: completed segments, drained by the tile ----
  /// Next completed merge slot in rotating order, or nullopt.
  [[nodiscard]] std::optional<unsigned> next_ready_slot();
  /// Requester tile of a completed slot (for response-class lookup).
  [[nodiscard]] TileId slot_requester(unsigned idx) const;
  /// Build the wide response beat and free the slot.
  [[nodiscard]] TcdmResp take_beat(unsigned idx);
  /// Completed slots currently awaiting emission.
  [[nodiscard]] unsigned ready_count() const noexcept { return ready_map_.count(); }
  /// Advance the emission rotation by `steps` as if next_ready_slot() had
  /// been called (and the slot left ready) that many times. Lets the tile
  /// collapse a provably all-blocked emission tail into one call while
  /// keeping rr_ — and hence future arbitration — bit-exact.
  void skip_rotation(unsigned steps) {
    for (unsigned i = 0; i < steps; ++i) (void)next_ready_slot();
  }

  /// O(1): live occupancy counts make this a pair of integer tests, not a
  /// slot sweep (it runs in every tile's quiescence check every cycle).
  [[nodiscard]] bool busy() const noexcept { return !pending_.empty() || used_slots_ != 0; }
  [[nodiscard]] unsigned grouping_factor() const noexcept { return cfg_.grouping_factor; }

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

  BurstManagerConfig cfg_;
  const AddressMap& map_;
  TileId tile_;
  BoundedQueue<ActiveBurst> pending_;
  std::vector<MergeSlot> slots_;
  unsigned rr_ = 0;          // rotating start for next_ready_slot
  unsigned used_slots_ = 0;  // slots not kFree (O(1) busy())
  // Slot-state bitmaps, maintained at every state transition: alloc_slot and
  // next_ready_slot become a couple of word operations instead of linear
  // slot scans (next_ready_slot was the top profile entry on burst-heavy
  // workloads — emit_burst_beats polls it up to 64x per tile-cycle).
  ActiveBitmap free_map_;   // bit set <=> slot kFree
  ActiveBitmap ready_map_;  // bit set <=> slot kReady
  Counter bursts_accepted_;
  Counter bank_reqs_issued_;
  Counter beats_merged_;
  Counter fifo_full_events_;
};

}  // namespace tcdm
