// Interface a Core Complex uses to reach its surroundings: the local tile's
// SPM banks (single-cycle path) and the hierarchical network (remote path).
// Implemented by Tile; consumed by the Snitch LSU and the Burst Sender.
//
// A core's single-word access (a Snitch load, store or AMO, or a VLSU
// element the Burst Sender leaves narrow) has one way out: route_word()
// decodes its route once, and send_word() puts it into the home tile's bank
// or onto the class port towards its destination tile.
#pragma once

#include <cstdint>

#include "src/common/types.hpp"
#include "src/interconnect/network.hpp"
#include "src/interconnect/topology.hpp"
#include "src/memory/address_map.hpp"
#include "src/memory/mem_types.hpp"

namespace tcdm {

/// Where a single word goes from its home tile.
struct WordRoute {
  bool local = false;              // one of the home tile's banks
  std::uint8_t cls = 0;            // remote: the home tile's class port
  TileId dst_tile = 0;             // remote: destination tile
  std::uint32_t row = 0;           // local: bank row
  std::uint32_t bank_in_tile = 0;  // local: bank within the home tile
};

/// The route of the word at `addr` from tile `home`.
[[nodiscard]] inline WordRoute route_word(const AddressMap& map, const Topology& topo,
                                          TileId home, Addr addr) {
  const DecodedAddr dec = map.decode(addr);
  WordRoute r;
  if (dec.tile == home) {
    r.local = true;
    r.row = dec.row;
    r.bank_in_tile = dec.bank_in_tile;
  } else {
    r.dst_tile = dec.tile;
    r.cls = topo.class_of(home, dec.tile);
  }
  return r;
}

/// One single-word access as a core issues it. The tag travels with the
/// word to its bank and back.
struct WordAccess {
  Addr addr = 0;
  bool write = false;
  bool amo_add = false;  // atomic fetch-and-add (scalar only)
  Word wdata = 0;
  ReqTag tag;
};

class TileServices {
 public:
  virtual ~TileServices() = default;

  [[nodiscard]] virtual HierNetwork& net() = 0;
  [[nodiscard]] virtual const AddressMap& map() const = 0;
  [[nodiscard]] virtual TileId tile_id() const = 0;

  /// The route of the word at `addr` from this tile.
  [[nodiscard]] WordRoute route(Addr addr) {
    return route_word(map(), net().topology(), tile_id(), addr);
  }

  /// Send one word along `route` (decoded from this tile): into its bank's
  /// input queue, or onto its class port. False when the queue is full or
  /// the port is busy this cycle; the caller retries.
  [[nodiscard]] bool send_word(const WordRoute& route, const WordAccess& w, Cycle now) {
    const TileId home = tile_id();
    if (route.local) {
      BankReq br;
      br.row = route.row;
      br.write = w.write;
      br.amo_add = w.amo_add;
      br.wdata = w.wdata;
      br.route.tag = w.tag;
      br.route.src_tile = home;
      return try_local_push(route.bank_in_tile, br);
    }
    HierNetwork& n = net();
    if (!n.can_send_req(home, route.cls, now)) return false;
    TcdmReq req;
    req.addr = w.addr;
    req.len = 1;
    req.write = w.write;
    req.amo_add = w.amo_add;
    req.wdata = w.wdata;
    req.src_tile = home;
    req.tag = w.tag;
    n.send_req(home, route.dst_tile, req, now);
    return true;
  }

 protected:
  /// Push a request into a local bank's input queue (full local bandwidth:
  /// every bank has its own port into the tile-local crossbar).
  [[nodiscard]] virtual bool try_local_push(unsigned bank_in_tile, const BankReq& req) = 0;
};

}  // namespace tcdm
