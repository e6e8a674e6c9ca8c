// The call-order contract of the synchronous step engine.
//
// sim::ShardedNetwork runs each receiver's deliveries, tick and end_step
// in one pass. That is bit-identical to "all deliveries, then all ticks,
// then all ages" only because (a) every frame of a step is built before
// any receiver-side call and (b) each receiver sees its heard frames in
// ascending-sender order, followed by exactly one tick and one end_step
// (and, where the engine keeps an active set, one consume_activity). This suite pins
// that order with a toy arena protocol that stamps every call from a
// global atomic clock into a lock-free event log, across kFull and
// kDirty on a loss-free medium (both keep an active set and skip quiet
// nodes), a lossy medium (every node steps), 1 and 4 threads, 1 and 5
// shards. Frames a step does not rebuild, and rows read from another
// shard's arena, must still carry the sender's pre-step value.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "sim/loss.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "support/deployments.hpp"
#include "util/rng.hpp"

namespace ssmwn {
namespace {

enum class Call : std::uint8_t { kMakeFrame, kDeliver, kTick, kEndStep,
                                 kConsume };

struct Event {
  Call call;
  graph::NodeId node;    // sender for kMakeFrame, receiver otherwise
  graph::NodeId sender;  // kDeliver only
};

/// Max-flooding toy: every node broadcasts its value plus `p % 3`
/// digests naming itself; tick keeps the largest value heard. Under
/// dirty stepping a node stays awake while its value moves, so the
/// active set shrinks from everyone to no one over a few steps. Every
/// call appends one event at a slot claimed from an atomic cursor, so
/// the log order is the global order of the calls, whichever threads
/// made them.
struct OrderProtocol {
  struct FrameHeader {
    graph::NodeId sender;
    std::uint64_t value;
  };
  struct Digest {
    graph::NodeId owner;
    std::uint32_t index;
  };

  OrderProtocol(std::size_t n, std::size_t capacity, std::uint64_t seed)
      : value(n), heard_max(n), changed(n, 0), log(capacity) {
    util::Rng rng(seed);
    for (auto& v : value) v = rng.below(1000);
  }

  std::size_t digest_count(graph::NodeId p) const { return p % 3; }

  void make_frame(graph::NodeId p, FrameHeader& header,
                  std::span<Digest> out) const {
    record({Call::kMakeFrame, p, p});
    header = FrameHeader{p, value[p]};
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = Digest{p, static_cast<std::uint32_t>(i)};
    }
  }

  void deliver(graph::NodeId q, const FrameHeader& header,
               std::span<const Digest> digests) {
    record({Call::kDeliver, q, header.sender});
    // The frame must carry the sender's pre-step value: frames are a
    // snapshot taken before any rule of the step fires.
    if (header.value != snapshot[header.sender] ||
        digests.size() != header.sender % 3) {
      bad_frames.fetch_add(1, std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < digests.size(); ++i) {
      if (digests[i].owner != header.sender || digests[i].index != i) {
        bad_frames.fetch_add(1, std::memory_order_relaxed);
      }
    }
    heard_max[q] = std::max(heard_max[q], header.value);
  }

  void tick(graph::NodeId q) {
    record({Call::kTick, q, q});
    if (heard_max[q] > value[q]) {
      value[q] = heard_max[q];
      changed[q] = 1;
    }
  }

  void end_step(graph::NodeId q) {
    record({Call::kEndStep, q, q});
    heard_max[q] = 0;
  }

  // Quiescence extension.
  bool maybe_tick(graph::NodeId q) {
    tick(q);
    return true;
  }
  bool consume_activity(graph::NodeId q) {
    record({Call::kConsume, q, q});
    const bool moved = changed[q] != 0;
    changed[q] = 0;
    return moved;
  }
  std::vector<graph::NodeId> take_external_wakes() { return {}; }
  // Row-equality predicates: the engine's grades decide whose neighbors
  // step.
  static bool header_bits_equal(const FrameHeader& a, const FrameHeader& b) {
    return a.sender == b.sender && a.value == b.value;
  }
  static bool digest_bits_equal(const Digest& a, const Digest& b) {
    return a.owner == b.owner && a.index == b.index;
  }
  static bool digest_id_equal(const Digest& a, const Digest& b) {
    return a.owner == b.owner;
  }

  /// Starts a step's log: clears it and snapshots the frame values.
  void begin_log() {
    cursor.store(0, std::memory_order_relaxed);
    snapshot = value;
  }
  [[nodiscard]] std::span<const Event> events() const {
    return {log.data(), std::min(cursor.load(), log.size())};
  }
  [[nodiscard]] bool overflowed() const { return cursor.load() > log.size(); }

  void record(Event e) const {
    const std::size_t slot = cursor.fetch_add(1, std::memory_order_relaxed);
    if (slot < log.size()) log[slot] = e;
  }

  std::vector<std::uint64_t> value;
  std::vector<std::uint64_t> heard_max;
  std::vector<std::uint8_t> changed;
  std::vector<std::uint64_t> snapshot;
  mutable std::atomic<std::size_t> cursor{0};
  mutable std::vector<Event> log;
  std::atomic<std::uint64_t> bad_frames{0};
};

static_assert(sim::ArenaProtocol<OrderProtocol>);
static_assert(sim::QuiescentProtocol<OrderProtocol>);

enum class Mode { kFull, kLossy, kDirty };

/// Checks one step's log against the contract; returns the nodes that
/// stepped (ticked) this step.
std::size_t check_step(const graph::Graph& g, std::span<const Event> log,
                       Mode mode, std::size_t step) {
  const std::size_t n = g.node_count();
  // Every make_frame precedes every receiver-side call.
  const auto first_recv =
      std::find_if(log.begin(), log.end(), [](const Event& e) {
        return e.call != Call::kMakeFrame;
      });
  EXPECT_TRUE(std::none_of(first_recv, log.end(), [](const Event& e) {
    return e.call == Call::kMakeFrame;
  })) << "make_frame after a receiver-side call at step " << step;

  // Per receiver: its calls in log order.
  std::vector<std::vector<Event>> per_node(n);
  for (auto it = first_recv; it != log.end(); ++it) {
    per_node[it->node].push_back(*it);
  }
  const bool tracked = mode != Mode::kLossy;
  std::size_t stepped = 0;
  for (graph::NodeId q = 0; q < n; ++q) {
    const auto& calls = per_node[q];
    if (calls.empty()) {
      EXPECT_TRUE(tracked)
          << "node " << q << " skipped by a lossy step " << step;
      continue;
    }
    ++stepped;
    const std::size_t tail = tracked ? 3 : 2;
    if (calls.size() < tail) {
      ADD_FAILURE() << "node " << q << " made " << calls.size()
                    << " calls at step " << step;
      continue;
    }
    const std::size_t heard = calls.size() - tail;
    std::vector<graph::NodeId> senders;
    for (std::size_t i = 0; i < heard; ++i) {
      EXPECT_EQ(calls[i].call, Call::kDeliver)
          << "node " << q << " call " << i << " step " << step;
      senders.push_back(calls[i].sender);
    }
    EXPECT_TRUE(std::is_sorted(senders.begin(), senders.end()) &&
                std::adjacent_find(senders.begin(), senders.end()) ==
                    senders.end())
        << "node " << q << " heard out of ascending-sender order, step "
        << step;
    const auto nbrs = g.neighbors(q);
    if (mode == Mode::kLossy) {
      EXPECT_TRUE(std::includes(nbrs.begin(), nbrs.end(), senders.begin(),
                                senders.end()))
          << "node " << q << " heard a non-neighbor, step " << step;
    } else {
      EXPECT_TRUE(std::equal(senders.begin(), senders.end(), nbrs.begin(),
                             nbrs.end()))
          << "node " << q << " missed a neighbor, step " << step;
    }
    EXPECT_EQ(calls[heard].call, Call::kTick) << "node " << q;
    EXPECT_EQ(calls[heard + 1].call, Call::kEndStep) << "node " << q;
    if (tracked) {
      EXPECT_EQ(calls[heard + 2].call, Call::kConsume) << "node " << q;
    }
  }
  return stepped;
}

struct Shape {
  Mode mode;
  unsigned threads;
  std::size_t shards;
};

void run_shape(const Shape& shape) {
  const auto w = testsupport::make_deployment(300, 0.11, 41);
  const graph::Graph& g = w.graph;
  const std::size_t n = g.node_count();
  const std::size_t capacity = 4 * n + g.csr_neighbors().size() + 64;
  OrderProtocol protocol(n, capacity, 7);
  sim::PerfectDelivery perfect;
  sim::BernoulliDelivery lossy(0.7, util::Rng(9));
  sim::LossModel& loss =
      shape.mode == Mode::kLossy ? static_cast<sim::LossModel&>(lossy)
                                 : perfect;
  sim::Network net(g, protocol, loss,
                   graph::plan_contiguous_shards(n, shape.shards).bounds,
                   shape.threads);
  ASSERT_EQ(net.shard_count(), shape.shards);
  if (shape.mode == Mode::kDirty) net.set_stepping(sim::Stepping::kDirty);

  std::size_t partial_steps = 0;
  for (std::size_t step = 0; step < 14; ++step) {
    protocol.begin_log();
    const std::uint64_t before = net.messages_delivered();
    net.step();
    ASSERT_FALSE(protocol.overflowed()) << "event log too small";
    const auto log = protocol.events();
    const std::size_t stepped = check_step(g, log, shape.mode, step);
    const auto deliveries = static_cast<std::uint64_t>(
        std::count_if(log.begin(), log.end(),
                      [](const Event& e) { return e.call == Call::kDeliver; }));
    // kFull counts the logical 2|E| per step, whoever stepped.
    EXPECT_EQ(net.messages_delivered() - before,
              shape.mode == Mode::kFull ? g.csr_neighbors().size()
                                        : deliveries)
        << "step " << step;
    if (shape.mode == Mode::kLossy) {
      EXPECT_EQ(stepped, n);
      continue;
    }
    std::size_t listed = 0;
    for (std::size_t s = 0; s < net.shard_count(); ++s) {
      listed += net.shard_activity(s).active().size();
    }
    EXPECT_EQ(listed, stepped) << "step " << step;
    EXPECT_EQ(net.activity().last_nodes_stepped(),
              shape.mode == Mode::kDirty ? stepped : n);
    if (stepped > 0 && stepped < n) ++partial_steps;
  }
  EXPECT_EQ(protocol.bad_frames.load(), 0u);
  // The max flood must actually have shrunk the active set, or the
  // loss-free shapes would only re-test whole-population stepping.
  if (shape.mode != Mode::kLossy) {
    EXPECT_GT(partial_steps, 0u);
    EXPECT_GT(net.subset_steps(), 0u);
  }
}

const char* mode_name(Mode mode) {
  return mode == Mode::kFull ? "Full" : mode == Mode::kLossy ? "Lossy" : "Dirty";
}

std::string shape_name(const Shape& shape) {
  return std::string(mode_name(shape.mode)) + "_T" +
         std::to_string(shape.threads) + "_S" + std::to_string(shape.shards);
}

void PrintTo(const Shape& shape, std::ostream* os) { *os << shape_name(shape); }

class StepOrder : public ::testing::TestWithParam<Shape> {};

TEST_P(StepOrder, FramesFirstThenOneReceivePassPerNode) {
  run_shape(GetParam());
}

std::vector<Shape> all_shapes() {
  std::vector<Shape> shapes;
  for (const Mode mode : {Mode::kFull, Mode::kLossy, Mode::kDirty}) {
    for (const unsigned threads : {1u, 4u}) {
      for (const std::size_t shards : {std::size_t{1}, std::size_t{5}}) {
        shapes.push_back({mode, threads, shards});
      }
    }
  }
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, StepOrder, ::testing::ValuesIn(all_shapes()),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return shape_name(info.param);
    });

}  // namespace
}  // namespace ssmwn
