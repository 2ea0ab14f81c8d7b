// Transaction types exchanged between cores, the interconnect, the burst
// machinery and the SPM banks.
//
// Two layers exist:
//  * TcdmReq / TcdmResp — what travels on the hierarchical interconnect.
//    A TcdmReq is either a narrow 32-bit access (len == 1) or a read burst
//    (len > 1, the paper's TCDM Burst). A TcdmResp beat carries up to GF
//    words on the widened response channel.
//  * BankReq / BankResp — what a single SPM bank sees: always one word.
//    The `BankRoute` it echoes back tells the owning tile where the word
//    must be delivered (local core, remote narrow response, or a Burst
//    Manager merge buffer) and carries the requester's `ReqTag` unchanged,
//    so one record follows a single-word access from requester to bank
//    and back.
#pragma once

#include <array>
#include <cstdint>

#include "src/common/types.hpp"

namespace tcdm {

/// Widest supported response beat (grouping factor); the paper evaluates
/// GF2/GF4, we support up to 8 for ablations.
inline constexpr unsigned kMaxGroupingFactor = 8;

/// Identifies the requester-side owner of an in-flight transaction.
enum class ReqOwner : std::uint8_t {
  kScalar,     // Snitch load/store/AMO
  kVecNarrow,  // one VLSU port's narrow element access
  kBurst,      // coalesced burst issued by the Burst Sender
};

/// Echoed, opaque-to-memory routing tag attached to every request.
struct ReqTag {
  ReqOwner owner = ReqOwner::kScalar;
  std::uint8_t port = 0;         // VLSU port (kVecNarrow)
  std::uint16_t rob_slot = 0;    // ROB ring slot (kVecNarrow) / scalar request id
  std::uint32_t id = 0;          // burst id (kBurst)
  std::uint8_t word_offset = 0;  // this word's index within its burst/beat
};

/// Longest burst any configuration can produce (= deepest banks-per-tile we
/// support; bursts never cross tiles). Lives here so TcdmReq can size its
/// write-burst payload.
inline constexpr unsigned kMaxBurstWords = 16;

/// Request as seen by the interconnect (master port -> slave port).
struct TcdmReq {
  Addr addr = 0;             // word-aligned base address
  std::uint8_t len = 1;      // elements; >1 only for bursts
  std::uint8_t stride = 1;   // element spacing in words (strided-burst extension)
  bool write = false;
  bool amo_add = false;      // atomic fetch-and-add (scalar only)
  Word wdata = 0;            // narrow store / AMO operand
  TileId src_tile = 0;       // requester (response routes back here)
  ReqTag tag;
  /// Write-burst payload (store-burst extension): carried across the request
  /// channel in ceil(len / req_grouping_factor) data beats.
  std::array<Word, kMaxBurstWords> burst_wdata{};
};

/// Response beat on the (possibly widened) response channel.
struct TcdmResp {
  std::uint8_t num_words = 1;
  bool write_ack = false;  // store acknowledgement (no data payload)
  std::array<Word, kMaxGroupingFactor> data{};
  TileId dst_tile = 0;  // requester tile this beat returns to
  ReqTag tag;           // owner info; for bursts, word_offset of data[0]
};

/// Where a bank's single-word response must be delivered by its tile.
enum class RouteKind : std::uint8_t {
  kLocal,         // straight to the local CC, which dispatches on tag.owner
  kRemoteNarrow,  // narrow beat onto the response network
  kBurstSegment,  // into a Burst Manager merge buffer
};

struct BankRoute {
  ReqTag tag;  // the requester's tag; a burst segment's word sets its offset
  RouteKind kind = RouteKind::kLocal;
  std::uint8_t seg = 0;  // Burst Manager merge-slot index
  bool write = false;    // store (ack only, no data)
  TileId src_tile = 0;   // requester tile
};

/// One-word request at a bank's input port.
struct BankReq {
  std::uint32_t row = 0;  // row inside this bank's array
  bool write = false;
  bool amo_add = false;
  Word wdata = 0;
  BankRoute route;
};

/// One-word bank response (or store ack).
struct BankResp {
  Word data = 0;
  BankRoute route;
};

}  // namespace tcdm
