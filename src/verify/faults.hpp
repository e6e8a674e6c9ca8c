// Fault-class taxonomy and structured state corruption for the
// self-stabilization certifier.
//
// The paper's theorem quantifies over *every* initial configuration, but
// "scramble everything uniformly" explores only one corner of that space:
// uniformly random states are almost never *plausible*, and plausible-but-
// wrong states (a cache full of real neighbors with stale densities, a
// hierarchy whose parent pointers form a cycle) are exactly the states a
// real deployment reaches after partitions, reboots and bit-flips. The
// corruptor therefore generates arbitrary states from *named fault
// classes*, each a different seeded distribution over
// DensityProtocol::NodeState, so the certifier can report convergence
// time and message cost per class — and a regression in one class is
// visible instead of averaged away.
//
// Everything here is deterministic from the caller's Rng: the same
// (graph, ids, class, rng seed) produces bit-identical corrupted state,
// which is what makes failing trials replayable and shrinkable.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

#include "core/protocol.hpp"
#include "graph/graph.hpp"
#include "topology/ids.hpp"
#include "util/rng.hpp"

namespace ssmwn::verify {

/// The fault-class taxonomy (see docs/TESTING.md for prose definitions).
enum class FaultClass : std::uint8_t {
  /// Every shared variable and cache uniformly scrambled, phantom
  /// neighbors included — the classic corrupt-all adversary.
  kRandomAll,
  /// Only the rank inputs are wrong: densities/metrics (and the DAG
  /// names they tie-break on) carry arbitrary values while the
  /// cache *topology* is truthful. Attacks rule R1/R2's election.
  kMetricSkew,
  /// Only the election outputs are wrong: head/cluster-id variables
  /// point at arbitrary (possibly nonexistent) nodes. Attacks the
  /// quiescence and independence parts of the predicate.
  kClusterIdNoise,
  /// Caches hold exactly the true radio neighbors, but every entry is
  /// stale: old metrics, old heads, ages at the eviction brink. The
  /// "rejoined after a partition" state.
  kStaleCache,
  /// head/parent pointers rewired into cycles and cross-links over real
  /// node ids — a structurally consistent-looking but illegitimate
  /// hierarchy. Attacks the clusterization-tree repair.
  kHierarchyLoops,
  /// Cache entries survive but their relayed digest lists are torn:
  /// truncated, duplicated into the wrong entry, ids/flags flipped —
  /// what a half-received frame would leave behind.
  kPartialFrame,
};

inline constexpr std::array<FaultClass, 6> kAllFaultClasses{
    FaultClass::kRandomAll,      FaultClass::kMetricSkew,
    FaultClass::kClusterIdNoise, FaultClass::kStaleCache,
    FaultClass::kHierarchyLoops, FaultClass::kPartialFrame,
};

/// Scheduler daemon the async half of a trial runs under. Mirrors
/// sim::DaemonKind but lives here so the campaign spec layer can sweep
/// the axis without pulling in the event-engine headers.
enum class Daemon : std::uint8_t {
  kSynchronous,
  kRandomized,
  kUnfair,
};

inline constexpr std::array<Daemon, 3> kAllDaemons{
    Daemon::kSynchronous, Daemon::kRandomized, Daemon::kUnfair};

[[nodiscard]] std::string_view to_string(FaultClass fault) noexcept;
[[nodiscard]] std::string_view to_string(Daemon daemon) noexcept;

/// What one corruption pass actually did, for observability and tests.
struct CorruptionStats {
  std::size_t nodes_touched = 0;
  std::size_t cache_entries_planted = 0;
  std::size_t digests_mutated = 0;
};

/// Applies one fault class to a protocol instance. The graph and id
/// assignment are needed to build *plausible* corruption (real-neighbor
/// caches, real-node hierarchy cycles); they are observed, not owned.
class StateCorruptor {
 public:
  StateCorruptor(const graph::Graph& graph, const topology::IdAssignment& ids)
      : graph_(&graph), ids_(&ids) {}

  /// Overwrites protocol state according to `fault`, drawing only from
  /// `rng`. Deterministic: equal (graph, ids, fault, rng state) produce
  /// bit-identical protocol state.
  CorruptionStats apply(core::DensityProtocol& protocol, FaultClass fault,
                        util::Rng& rng) const;

 private:
  const graph::Graph* graph_;
  const topology::IdAssignment* ids_;
};

}  // namespace ssmwn::verify
