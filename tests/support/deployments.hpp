// Shared deployment builders for the test suites.
//
// Half a dozen suites used to copy-paste the same three lines — uniform
// points, random ids, unit-disk graph, sometimes the oracle clustering
// on top. One definition here (next to the paper-example fixture in
// paper_example.hpp) so the verify, integration, routing, and energy
// suites draw identical worlds from identical seeds instead of each
// keeping a private near-duplicate.
#pragma once

#include <cstdint>

#include "core/clustering.hpp"
#include "graph/graph.hpp"
#include "topology/generators.hpp"
#include "topology/ids.hpp"
#include "topology/point.hpp"
#include "topology/udg.hpp"
#include "util/rng.hpp"

namespace ssmwn::testsupport {

/// A random unit-disk deployment plus everything most tests want next:
/// the protocol identifiers and (optionally) the synchronous oracle.
struct World {
  std::vector<topology::Point> points;
  graph::Graph graph;
  topology::IdAssignment ids;
  core::ClusteringResult oracle;  // filled only by make_world
};

/// Deployment without the oracle (for suites that cluster differently
/// or not at all). Draw order: points first, then ids — matching
/// campaign::draw_deployment (the CLI's, the campaign runner's and the
/// certifier's draw), so a seed names the same world everywhere.
inline World make_deployment(std::size_t n, double radius,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  World w;
  w.points = topology::uniform_points(n, rng);
  w.graph = topology::unit_disk_graph(w.points, radius);
  w.ids = topology::random_ids(n, rng);
  return w;
}

/// Deployment plus the basic-variant density oracle.
inline World make_world(std::size_t n, double radius, std::uint64_t seed,
                        const core::ClusterOptions& options = {}) {
  World w = make_deployment(n, radius, seed);
  w.oracle = core::cluster_density(w.graph, w.ids, options);
  return w;
}

}  // namespace ssmwn::testsupport
