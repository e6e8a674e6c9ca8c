// One recipe for a protocol run. Every entry point that plays the
// distributed protocol — `ssmwn protocol`, the campaign's async and live
// runs, the certifier's trials — builds it here: the protocol config
// (δ hint, cache timeout), the medium, the engine and its shard cut, the
// legitimacy check with its oracle, one settle for both engines and one
// mobility perturbation.
//
// Callers own the randomness: they split their RNG streams in their own
// fixed order and hand them in, so no seed's output depends on this
// module's construction order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "campaign/spec.hpp"
#include "core/legitimacy.hpp"
#include "graph/dynamic.hpp"
#include "mobility/mobility.hpp"
#include "sim/async_network.hpp"
#include "sim/churn.hpp"
#include "sim/sharded_network.hpp"
#include "stabilize/convergence.hpp"
#include "topology/incremental.hpp"

namespace ssmwn::campaign {

struct Deployment {
  std::vector<topology::Point> points;
  topology::IdAssignment ids;
};

/// Draws the points, then the ids: grid deployments get the paper's
/// adversarial left-to-right ids, the others random ones. For kPoisson
/// `n` is the intensity λ, and the draw may be empty.
[[nodiscard]] Deployment draw_deployment(TopologyKind kind, std::size_t n,
                                         util::Rng& rng);

/// The mobility model of `kind` over a `world_m`-meter square; null for
/// kNone.
[[nodiscard]] std::unique_ptr<mobility::MobilityModel> make_mover(
    MobilityKind kind, std::size_t n, mobility::SpeedRange speeds,
    double world_m, util::Rng rng);

/// Test seams for mutation checks: `corrupt_oracle` edits the reference
/// clustering whenever it is computed, `interfere` pokes the protocol
/// before every legitimacy check.
struct RunHooks {
  std::function<void(core::ClusteringResult&)> corrupt_oracle;
  std::function<void(core::DensityProtocol&)> interfere;
};

struct RunRecipe {
  core::ClusterOptions cluster;
  double tau = 1.0;  ///< per-link delivery probability
  std::optional<sim::AsyncConfig> async;  ///< none = the sync engine
  /// Sync engine workers (0 = all cores), one contiguous shard each, or
  /// `shards` >= 2 shards. Bit-identical at any value.
  unsigned threads = 1;
  std::size_t shards = 0;
  sim::Stepping stepping = sim::Stepping::kFull;
  /// Virtual seconds per sync round, and the movement per perturbation.
  double window_s = 1.0;
  /// Sets the protocol's start state before the engine attaches.
  std::function<void(core::DensityProtocol&)> initial_state;
  const RunHooks* hooks = nullptr;
};

struct RunStreams {
  util::Rng protocol;
  util::Rng loss;
  util::Rng engine{};  ///< async daemon and link delays
};

/// A fixed `graph` (observed, outlives the run), or the unit-disk graph
/// over `points`: each perturbation moves them one window, steps the
/// churn and carries the new graph to the engine — as an edge delta
/// (`incremental`) or as a rebuild the protocol discovers only through
/// cache aging.
struct RunWorld {
  const graph::Graph* graph = nullptr;
  std::vector<topology::Point>* points = nullptr;
  double radius = 0.0;
  bool incremental = true;
  std::unique_ptr<mobility::MobilityModel> mover{};
  std::optional<sim::NodeChurn> churn{};
};

/// One settle's report, on the engine clock, and that clock at its start
/// (sync rounds count from the settle, so 0 there).
struct Settled {
  stabilize::VirtualTimeReport report;
  double start_s = 0.0;

  /// From the start to the final legitimate run, or to the horizon.
  [[nodiscard]] double time_s() const noexcept {
    return (report.converged ? report.stabilization_time_s
                             : report.time_simulated_s) -
           start_s;
  }
  [[nodiscard]] std::uint64_t messages() const noexcept {
    return report.converged ? report.messages_to_converge
                            : report.messages_total;
  }
};

struct EdgeChange {
  std::size_t added = 0, removed = 0;  ///< 0/0 for a rebuild
};

class ProtocolRun {
 public:
  /// `ids` must outlive the run.
  ProtocolRun(RunWorld world, const topology::IdAssignment& ids,
              RunRecipe recipe, RunStreams streams);
  ProtocolRun(const ProtocolRun&) = delete;
  ProtocolRun& operator=(const ProtocolRun&) = delete;

  /// Runs until legitimacy holds `confirm_rounds` rounds in a row, or for
  /// `horizon_rounds` rounds.
  Settled settle(double horizon_rounds, double confirm_rounds = 3.0);
  /// Settles from the start state (window 0), then perturbs and settles
  /// `windows` times, showing each settle to `observe`.
  void live(std::size_t windows, double horizon_rounds,
            const std::function<void(std::size_t, EdgeChange,
                                     const Settled&)>& observe);
  /// One sync step, or one slowest-node round of async periods (see
  /// daemon_slowdown).
  void round();
  [[nodiscard]] bool legitimate();

  [[nodiscard]] core::DensityProtocol& protocol() noexcept {
    return protocol_;
  }
  [[nodiscard]] const RunRecipe& recipe() const noexcept { return recipe_; }
  [[nodiscard]] std::size_t head_count() const noexcept;
  [[nodiscard]] const sim::ActivityTracker& activity() const noexcept {
    return async_ ? async_->activity() : sync_->activity();
  }
  [[nodiscard]] unsigned thread_count() const noexcept {
    return sync_ ? sync_->thread_count() : 1u;
  }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return async_ ? async_->events_processed() : 0;
  }

 private:
  /// One mobility window: move, churn, carry the new graph to the
  /// engine, mark the oracle stale.
  EdgeChange perturb();
  const graph::Graph& initial_graph();
  void rebuild();

  RunRecipe recipe_;
  const topology::IdAssignment* ids_;
  RunWorld world_;
  std::optional<topology::LiveTopology> live_;
  graph::DynamicGraph rebuilt_;
  const graph::Graph* graph_;
  core::DensityProtocol protocol_;
  std::unique_ptr<sim::LossModel> medium_;
  std::optional<sim::ShardedNetwork<core::DensityProtocol>> sync_;
  std::optional<sim::AsyncNetwork<core::DensityProtocol>> async_;
  core::ClusteringResult oracle_;
  bool oracle_stale_ = true;
  core::LegitimacyCheck legitimacy_;
};

}  // namespace ssmwn::campaign
