// sim::Network — the name most callers use for the synchronous step
// engine. There is one engine, sim::ShardedNetwork (see
// sim/sharded_network.hpp for the Protocol concept and the Δ(τ) step
// semantics); `sim::Network net(g, protocol, loss, threads)` deduces it
// through the alias and steps one contiguous shard per worker.
#pragma once

#include "sim/sharded_network.hpp"

namespace ssmwn::sim {

template <typename Protocol>
using Network = ShardedNetwork<Protocol>;

}  // namespace ssmwn::sim
