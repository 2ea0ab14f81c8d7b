// HierNetwork unit tests driven by a bare network instance: zero-load
// latencies, request-port serialization, response-channel gating, FCFS
// egress fairness, backpressure, and store-ack out-of-band delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/cluster/cluster_config.hpp"
#include "src/interconnect/network.hpp"
#include "tests/support/test_support.hpp"

namespace tcdm {
namespace {

struct CollectSink : RspSink {
  struct Item {
    TcdmResp rsp;
    Cycle at;
  };
  std::vector<Item> items;
  void deliver_rsp(const TcdmResp& rsp, Cycle now) override {
    items.push_back({rsp, now});
  }
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : topo_(test::two_pair_topology()),  // 4 tiles: pairs with RT3 / RT5
        net_(topo_, 1, stats_) {}

  TcdmReq make_req(TileId src, Addr addr = 0, unsigned len = 1) {
    TcdmReq r;
    r.addr = addr;
    r.len = static_cast<std::uint8_t>(len);
    r.src_tile = src;
    return r;
  }

  StatsRegistry stats_;
  Topology topo_;
  HierNetwork net_;
  CollectSink sink_;
};

TEST_F(NetworkTest, RequestArrivesAfterClassLatency) {
  // Tile 0 -> tile 1: same lowest node, class 0, request latency 1.
  const std::uint8_t cls = topo_.class_of(0, 1);
  ASSERT_TRUE(net_.can_send_req(0, cls, 0));
  net_.send_req(0, 1, make_req(0), 0);
  net_.cycle(0, sink_);
  EXPECT_TRUE(net_.slave_empty(1, cls));  // latency not yet elapsed
  net_.cycle(1, sink_);
  EXPECT_FALSE(net_.slave_empty(1, cls));
}

TEST_F(NetworkTest, LongerLatencyForHigherLevel) {
  // Tile 0 -> tile 2: different level-1 node, request latency 2.
  const std::uint8_t cls = topo_.class_of(0, 2);
  net_.send_req(0, 2, make_req(0), 0);
  net_.cycle(1, sink_);
  EXPECT_TRUE(net_.slave_empty(2, cls));
  net_.cycle(2, sink_);
  EXPECT_FALSE(net_.slave_empty(2, cls));
}

TEST_F(NetworkTest, MasterPortSerializesOnePerCycle) {
  const std::uint8_t cls = topo_.class_of(0, 1);
  EXPECT_TRUE(net_.can_send_req(0, cls, 5));
  net_.send_req(0, 1, make_req(0), 5);
  EXPECT_FALSE(net_.can_send_req(0, cls, 5));  // port used this cycle
  EXPECT_TRUE(net_.can_send_req(0, cls, 6));
}

TEST_F(NetworkTest, DistinctClassesSendInParallel) {
  const std::uint8_t c1 = topo_.class_of(0, 1);
  const std::uint8_t c2 = topo_.class_of(0, 2);
  ASSERT_NE(c1, c2);
  net_.send_req(0, 1, make_req(0), 0);
  EXPECT_TRUE(net_.can_send_req(0, c2, 0));  // per-class physical ports
  net_.send_req(0, 2, make_req(0), 0);
}

TEST_F(NetworkTest, EgressDeliversOnePerClassPerCycleFcfs) {
  // Tiles 1,2,3 all target tile 0; tile 1 arrives on class 0 (latency 1),
  // tiles 2,3 share the remote class (latency 2), so its egress delivers
  // them one per cycle: 2 of 3 arrived after cycle 2, all 3 after cycle 3.
  net_.send_req(1, 0, make_req(1), 0);
  net_.send_req(2, 0, make_req(2), 0);
  net_.send_req(3, 0, make_req(3), 0);
  const auto drain = [&] {
    unsigned arrived = 0;
    for (unsigned cls = 0; cls < topo_.num_classes(); ++cls) {
      while (!net_.slave_empty(0, static_cast<std::uint8_t>(cls))) {
        (void)net_.slave_pop(0, static_cast<std::uint8_t>(cls));
        ++arrived;
      }
    }
    return arrived;
  };
  for (Cycle c = 0; c <= 2; ++c) net_.cycle(c, sink_);
  EXPECT_EQ(drain(), 2u);  // same-class pair serialized at the egress
  net_.cycle(3, sink_);
  EXPECT_EQ(drain(), 1u);
}

TEST_F(NetworkTest, SameClassContentionServedOverTime) {
  // Tiles 2 and 3 are the same level-1 sibling group from tile 0's view?
  // No — but tiles 1..3 -> 0 on the same class happens from 1 only. Use two
  // requests from tile 1 instead: strictly one arrival per cycle.
  const std::uint8_t cls = topo_.class_of(1, 0);
  net_.send_req(1, 0, make_req(1, 0x0), 0);
  net_.cycle(0, sink_);
  net_.send_req(1, 0, make_req(1, 0x4), 1);
  net_.cycle(1, sink_);
  EXPECT_FALSE(net_.slave_empty(0, cls));
  (void)net_.slave_pop(0, cls);
  EXPECT_TRUE(net_.slave_empty(0, cls));  // second still in flight
  net_.cycle(2, sink_);
  EXPECT_FALSE(net_.slave_empty(0, cls));
}

TEST_F(NetworkTest, ResponseRoundTripAndEgressGate) {
  // Responses from two different responders to tile 0 in the same cycle:
  // the CC-side egress retires at most one beat per cycle.
  TcdmResp r1;
  r1.dst_tile = 0;
  r1.num_words = 1;
  TcdmResp r2 = r1;
  ASSERT_TRUE(net_.can_send_rsp(1, 0, 0));
  net_.send_rsp(1, r1, 0);
  ASSERT_TRUE(net_.can_send_rsp(2, 0, 0));
  net_.send_rsp(2, r2, 0);
  net_.cycle(1, sink_);  // class-0 response (lat 1) ready
  net_.cycle(2, sink_);  // level-1 response (lat 2) ready
  net_.cycle(3, sink_);
  ASSERT_EQ(sink_.items.size(), 2u);
  EXPECT_LT(sink_.items[0].at, sink_.items[1].at);  // one beat per cycle
}

TEST_F(NetworkTest, SlaveBackpressureStallsEgress) {
  // Push 6 requests toward tile 1 while cycling the network (the master
  // FIFO holds only latency+2 entries, so sender and network must overlap).
  // The slave queue (depth 4) fills; the remainder waits in the master FIFO.
  const std::uint8_t cls = topo_.class_of(0, 1);
  Cycle c = 0;
  unsigned sent = 0;
  while (sent < 6) {
    ASSERT_LT(c, 50u) << "sender starved";
    if (net_.can_send_req(0, cls, c)) {
      net_.send_req(0, 1, make_req(0, sent * 4), c);
      ++sent;
    }
    net_.cycle(c, sink_);
    ++c;
  }
  for (; c < 30; ++c) net_.cycle(c, sink_);
  unsigned queued = 0;
  while (!net_.slave_empty(1, cls)) {
    (void)net_.slave_pop(1, cls);
    ++queued;
  }
  EXPECT_EQ(queued, 4u);  // slave depth
  EXPECT_TRUE(net_.busy());  // the rest still waits in the master FIFO
  for (; c < 40; ++c) net_.cycle(c, sink_);
  queued = 0;
  while (!net_.slave_empty(1, cls)) {
    (void)net_.slave_pop(1, cls);
    ++queued;
  }
  EXPECT_EQ(queued, 2u);
  EXPECT_FALSE(net_.busy());
}

TEST_F(NetworkTest, StoreAckArrivesOutOfBandWithLatency) {
  net_.send_store_ack(2, 0, ReqOwner::kVecNarrow, 10);  // rsp latency 2
  net_.cycle(10, sink_);
  net_.cycle(11, sink_);
  EXPECT_TRUE(sink_.items.empty());
  net_.cycle(12, sink_);
  ASSERT_EQ(sink_.items.size(), 1u);
  EXPECT_TRUE(sink_.items[0].rsp.write_ack);
  EXPECT_EQ(sink_.items[0].rsp.tag.owner, ReqOwner::kVecNarrow);
}

TEST_F(NetworkTest, StoreAcksDoNotConsumeResponseBeats) {
  // An ack and a data beat both due at cycle 2 are delivered together: the
  // ack channel is out of band.
  TcdmResp data;
  data.dst_tile = 0;
  net_.send_rsp(1, data, 0);                             // ready at 1
  net_.send_store_ack(1, 0, ReqOwner::kScalar, 0);       // ready at 1
  net_.cycle(1, sink_);
  EXPECT_EQ(sink_.items.size(), 2u);
}

TEST_F(NetworkTest, WideBeatCarriesGroupedWords) {
  TcdmResp beat;
  beat.dst_tile = 3;
  beat.num_words = 4;
  beat.data = {1, 2, 3, 4, 0, 0, 0, 0};
  net_.send_rsp(0, beat, 0);
  for (Cycle c = 0; c <= 3; ++c) net_.cycle(c, sink_);
  ASSERT_EQ(sink_.items.size(), 1u);
  EXPECT_EQ(sink_.items[0].rsp.num_words, 4u);
  EXPECT_EQ(sink_.items[0].rsp.data[3], 4u);
}

TEST_F(NetworkTest, BusyReflectsInFlightTraffic) {
  EXPECT_FALSE(net_.busy());
  net_.send_req(0, 1, make_req(0), 0);
  EXPECT_TRUE(net_.busy());
  net_.cycle(0, sink_);
  net_.cycle(1, sink_);
  (void)net_.slave_pop(1, topo_.class_of(0, 1));
  EXPECT_FALSE(net_.busy());
}

TEST(NetworkWaitLists, SizedByTheTilesThatCanReachThem) {
  // A (dst, cls) wait-list holds at most the tiles whose traffic to dst
  // travels in class cls, so the lists at a tile split the other tiles.
  for (const ClusterConfig& cfg : {ClusterConfig::mp4spatz4(), ClusterConfig::mp64spatz4(),
                                   ClusterConfig::mp128spatz8()}) {
    const Topology topo = cfg.topology();
    StatsRegistry stats;
    const HierNetwork net(topo, 1, stats);
    for (TileId dst = 0; dst < topo.num_tiles(); ++dst) {
      std::size_t total = 0;
      for (unsigned cls = 0; cls < topo.num_classes(); ++cls) {
        total += net.wait_capacity(dst, static_cast<std::uint8_t>(cls));
      }
      ASSERT_EQ(total, topo.num_tiles() - 1) << cfg.name << " tile " << dst;
    }
  }
}

TEST(NetworkWaitLists, EveryTileCanWaitOnOneDestinationAtOnce) {
  // The worst case each list is sized for: every other tile sends to tile 0
  // in the same cycle, and every request reaches tile 0's slave queues.
  const Topology topo = ClusterConfig::mp64spatz4().topology();
  StatsRegistry stats;
  HierNetwork net(topo, 1, stats);
  CollectSink sink;
  for (TileId src = 1; src < topo.num_tiles(); ++src) {
    TcdmReq req;
    req.src_tile = src;
    net.send_req(src, 0, req, 0);
  }
  std::vector<TileId> arrived;
  for (Cycle c = 0; c < 1000 && net.busy(); ++c) {
    net.cycle(c, sink);
    for (unsigned cls = 0; cls < topo.num_classes(); ++cls) {
      const auto k = static_cast<std::uint8_t>(cls);
      while (!net.slave_empty(0, k)) arrived.push_back(net.slave_pop(0, k).src_tile);
    }
  }
  std::sort(arrived.begin(), arrived.end());
  ASSERT_EQ(arrived.size(), topo.num_tiles() - 1);
  for (TileId i = 0; i < arrived.size(); ++i) EXPECT_EQ(arrived[i], i + 1);
}

}  // namespace
}  // namespace tcdm
