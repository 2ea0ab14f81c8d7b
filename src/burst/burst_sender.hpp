// Burst Sender (paper §III-A): sits on the VLSU ports of a Spatz core.
//
// The VLSU hands it one "beat" per cycle — the K parallel element accesses
// of a vector memory instruction, each with its pre-allocated ROB slot,
// plus the instruction's addressing form and stride. The sender alone
// decides how each element travels:
//
//  * local tile          -> straight into the local banks (full bandwidth);
//  * remote, burst mode,
//    unit-stride load    -> coalesced into a single burst request
//                           (base, len<=K words, never crossing a tile) that
//                           occupies the narrow request channel for ONE cycle
//                           instead of len cycles;
//  * everything else     -> narrow 32-bit requests that serialize one per
//                           cycle at the master port (the baseline behaviour,
//                           and the fallback for strided/indexed accesses and
//                           stores, which the paper does not burst).
//
// The sender owns the burst table that maps a returning wide beat's
// (burst_id, word_offset) back to (VLSU port, ROB slot).
//
// dispatch() is called from the core phase; it may only use the calling
// tile's TileServices (own banks, own master ports; remote sends go through
// HierNetwork, see network.hpp).
//
// Each staged item is decoded once, when accept_beat() stages it: a narrow
// word's route (route_word), or a burst's destination tile and class.
// dispatch() then walks the staging ring in place and gives every open
// route one attempt per cycle; narrow words leave through
// TileServices::send_word.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bounded_queue.hpp"
#include "src/common/inline_vec.hpp"
#include "src/common/stats.hpp"
#include "src/common/types.hpp"
#include "src/cluster/tile_services.hpp"
#include "src/memory/mem_types.hpp"
#include "src/spatz/vinstr.hpp"  // kMaxPorts bounds a beat's fan-out; Form

namespace tcdm {

struct ClusterConfig;

/// A cycle's worth of element accesses from one vector memory instruction,
/// each tagged with its VLSU port (== elem % K) and, for loads, its
/// pre-allocated ROB slot. At most one element per VLSU port, so the words
/// live in inline storage — beats are built and consumed every issuing
/// cycle on the MP128 hot path, and a heap-backed vector here costs an
/// allocation per core per beat.
struct BeatRequest {
  InlineVec<WordAccess, kMaxPorts> words;
  Form form = Form::kVLoad;  // the instruction's addressing form
  std::int32_t stride = 0;   // byte stride (kVLoadS / kVStoreS)
};

class BurstSender {
 public:
  /// Outstanding bursts the table can resolve.
  static constexpr unsigned kTableSize = 64;
  /// Staging capacity in units of K-word beats.
  static constexpr unsigned kStagingBeats = 4;

  /// Reads the config's burst switches (`burst_enabled`, `strided_bursts`,
  /// `store_bursts`), its burst length and its VLSU port count K.
  explicit BurstSender(const ClusterConfig& cfg);

  void attach_stats(StatsRegistry& reg, const std::string& prefix);

  /// Room for one more beat? The VLSU checks this before address generation.
  [[nodiscard]] bool can_accept_beat() const noexcept {
    return staging_.size() <= capacity_items_;
  }

  /// Stage a beat: the beat's form and stride and the config's burst
  /// switches decide whether it bursts (unit-stride loads; strided loads
  /// and unit-stride stores under their extensions); burst runs coalesce,
  /// the rest is enqueued narrow. `map` and `topo` decode each staged
  /// item's route once, here. Every beat is taken: a run that finds the
  /// burst table full goes narrow.
  void accept_beat(const BeatRequest& beat, const AddressMap& map,
                                 const Topology& topo, TileId home_tile);

  /// Drain staging into local banks and network master ports.
  void dispatch(Cycle now, TileServices& tile);

  // ---- response-side burst table resolution ----
  struct BurstWord {
    std::uint8_t port = 0;
    std::uint16_t rob_slot = 0;
  };
  [[nodiscard]] BurstWord lookup(std::uint32_t id, unsigned word_offset) const;
  /// Mark `n` words of burst `id` as retired; frees the table entry when the
  /// whole burst has returned.
  void note_resolved(std::uint32_t id, unsigned n);

  [[nodiscard]] bool busy() const noexcept { return !staging_.empty() || live_bursts_ != 0; }
  [[nodiscard]] bool staging_empty() const noexcept { return staging_.empty(); }
  /// Burst-table entries still waiting for their data.
  [[nodiscard]] unsigned live_bursts() const noexcept { return live_bursts_; }

  /// Back to the just-constructed state (empty staging, all burst ids free).
  void reset();

 private:
  struct PendingItem {
    WordRoute route;  // a burst's route is remote: its class and tile
    // A narrow word as it is sent; for a burst, its base address, its
    // write flag (store-burst ext.) and its tag (kBurst, table id).
    WordAccess access;
    bool is_burst = false;
    bool sent = false;  // left staging in this dispatch() call
    // burst:
    std::uint8_t len = 0;
    std::uint8_t stride = 1;  // element spacing in words (strided-burst ext.)
    std::array<Word, kMaxBurstWords> wdata{};  // write-burst payload
  };

  struct TableEntry {
    bool valid = false;
    std::uint8_t len = 0;
    std::uint8_t resolved = 0;
    std::array<BurstWord, kMaxBurstWords> words{};
  };

  /// Takes a free burst id (the caller checked that one is free).
  [[nodiscard]] std::uint32_t alloc_burst();
  void push_staged(const PendingItem& item);
  /// Send one staged item if its route takes it this cycle.
  [[nodiscard]] bool try_send(const PendingItem& item, Cycle now, TileServices& tile);
  /// Try to extend the most recent staged burst with a contiguous run of the
  /// same kind (stride and read/write must match).
  [[nodiscard]] bool try_extend_tail(const WordAccess* run, unsigned n, Addr base,
                                     TileId dst, unsigned stride, bool write,
                                     const AddressMap& map);

  bool bursts_;
  /// Extension (paper future work): coalesce constant-stride vector loads
  /// into strided bursts (base, len, stride). Request-side win is identical
  /// to unit-stride bursts; the response-side merge degrades gracefully as
  /// the stride spreads elements over GF-bank segments.
  bool strided_bursts_;
  /// Extension (design-space ablation): coalesce unit-stride vector stores
  /// into write bursts. The payload still crosses the narrow request
  /// channel at req_grouping_factor words/cycle, which is why the paper
  /// leaves stores narrow.
  bool store_bursts_;
  unsigned max_burst_len_;  // usually K; capped by banks_per_tile
  std::size_t capacity_items_;
  // Ring, not deque: can_accept_beat() admits a beat only while
  // size() <= capacity_items_, and one beat stages at most kMaxPorts items,
  // so occupancy never exceeds capacity_items_ + kMaxPorts (ring capacity,
  // asserted on push). dispatch() walks the ring in place, then closes the
  // gaps its sends left by shifting the unsent items in front of the last
  // sent one towards the tail and dropping the front: unsent items keep
  // their order, and back() stays the youngest unsent item, the one
  // try_extend_tail grows.
  BoundedQueue<PendingItem> staging_;
  // Staged remote items per destination class: dispatch() stops its walk
  // once every class that still has items has had its one attempt.
  std::array<std::uint16_t, kMaxClasses> class_staged_{};
  std::vector<TableEntry> table_;
  std::vector<std::uint32_t> free_ids_;
  unsigned live_bursts_ = 0;
  Counter bursts_sent_;
  Counter burst_words_;
  Counter strided_bursts_sent_;  // subset of bursts_sent_ with stride > 1
  Counter store_bursts_sent_;    // subset of bursts_sent_ that are writes
  Counter narrow_sent_;
  Counter local_words_;
  Counter coalesce_splits_;  // beats split at tile boundaries
};

}  // namespace tcdm
