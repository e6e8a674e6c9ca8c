#include "topology/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "topology/cell_grid.hpp"

namespace ssmwn::topology {

namespace {

[[nodiscard]] std::pair<graph::NodeId, graph::NodeId> ordered(
    graph::NodeId a, graph::NodeId b) noexcept {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

[[nodiscard]] bool contains(
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& sorted,
    std::pair<graph::NodeId, graph::NodeId> e) noexcept {
  return std::binary_search(sorted.begin(), sorted.end(), e);
}

}  // namespace

IncrementalUdg::IncrementalUdg(std::span<const Point> points, double radius,
                               Config config)
    : radius_(radius),
      r2_(radius * radius),
      config_(config),
      positions_(points.begin(), points.end()),
      anchors_(points.begin(), points.end()) {
  if (!(radius > 0.0)) {
    throw std::invalid_argument("IncrementalUdg: radius must be positive");
  }
  if (!(config_.skin_fraction > 0.0) ||
      !(config_.max_skin_fraction >= config_.skin_fraction)) {
    throw std::invalid_argument("IncrementalUdg: bad skin configuration");
  }
  const double s = radius_ * config_.skin_fraction;
  safety2_ = (s / 2.0) * (s / 2.0);
  build_candidates(cand_offsets_, cand_);
}

void IncrementalUdg::build_candidates(std::vector<std::size_t>& offsets,
                                      std::vector<Candidate>& rows) {
  const std::size_t n = positions_.size();
  offsets.assign(n + 1, 0);
  rows.clear();
  if (n == 0) return;

  // Same uniform cell bucketing as unit_disk_graph, with the cell side
  // widened to the candidate horizon.
  const double h = radius_ * (1.0 + config_.skin_fraction);
  const double h2 = h * h;
  const CellGrid grid = make_cell_grid(positions_, h);

  cell_start_.assign(grid.cell_count() + 1, 0);
  for (const Point& p : positions_) ++cell_start_[grid.cell_of(p) + 1];
  for (std::size_t c = 1; c < cell_start_.size(); ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }
  by_cell_.resize(n);
  sorted_pos_.resize(n);
  {
    std::vector<std::uint32_t> cursor(cell_start_.begin(),
                                      cell_start_.end() - 1);
    for (graph::NodeId i = 0; i < n; ++i) {
      const std::uint32_t slot = cursor[grid.cell_of(positions_[i])]++;
      by_cell_[slot] = i;
      // Cell-ordered position copy: the distance pass below streams it
      // sequentially instead of gathering positions_[j] at random —
      // this is what makes a candidate rebuild cheaper than a full
      // unit_disk_graph reconstruction.
      sorted_pos_[slot] = positions_[i];
    }
  }

  // Single distance pass in cell order over the *half stencil* —
  // within-cell successors plus the four forward neighbor cells — so
  // every unordered pair in range is visited exactly once (no wasted
  // `j <= i` half). A pair lands in the row of whichever node
  // discovered it; delta emission normalizes to (low, high), and the
  // rebuild diff reconciles pairs that migrate rows between rebuilds.
  // Rows are deliberately NOT sorted — build is the expensive step, and
  // the diff/scan paths never rely on row order (deltas are sorted
  // once, at emission).
  constexpr long kForward[4][2] = {{1, 0}, {-1, 1}, {0, 1}, {1, 1}};
  slack_offsets_.resize(n + 1);
  slack_offsets_[0] = 0;
  row_size_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const auto cx = static_cast<long>(grid.column(sorted_pos_[s]));
    const auto cy = static_cast<long>(grid.row(sorted_pos_[s]));
    const std::size_t own = grid.cell_of(sorted_pos_[s]);
    std::size_t bound = cell_start_[own + 1] - (s + 1);  // successors
    for (const auto& [dx, dy] : kForward) {
      const long nx =
          std::clamp(cx + dx, 0L, static_cast<long>(grid.cells_x) - 1);
      const long ny =
          std::clamp(cy + dy, 0L, static_cast<long>(grid.cells_y) - 1);
      if (nx != cx + dx || ny != cy + dy) continue;  // border-cell alias
      const std::size_t cell = static_cast<std::size_t>(ny) * grid.cells_x +
                               static_cast<std::size_t>(nx);
      bound += cell_start_[cell + 1] - cell_start_[cell];
    }
    slack_offsets_[s + 1] = slack_offsets_[s] + bound;
  }
  // Grow-only: resize value-initializes, and the slack buffer is tens of
  // megabytes at n=100k — re-zeroing it every rebuild would cost more
  // than the distance pass it serves. Entries are written before read.
  if (fill_.size() < slack_offsets_[n]) fill_.resize(slack_offsets_[n]);
  for (std::size_t s = 0; s < n; ++s) {
    const graph::NodeId i = by_cell_[s];
    const Point pi = sorted_pos_[s];
    const auto cx = static_cast<long>(grid.column(pi));
    const auto cy = static_cast<long>(grid.row(pi));
    std::size_t cursor = slack_offsets_[s];
    // Branchless filter: the horizon test is data-dependent and
    // mispredicts constantly; store unconditionally and bump the cursor
    // by the keep flag instead.
    const std::size_t own = grid.cell_of(pi);
    for (std::uint32_t t = static_cast<std::uint32_t>(s) + 1;
         t < cell_start_[own + 1]; ++t) {
      const double d2 = squared_distance(pi, sorted_pos_[t]);
      fill_[cursor] =
          Candidate{by_cell_[t], static_cast<std::uint8_t>(d2 <= r2_)};
      cursor += static_cast<std::size_t>(d2 <= h2);
    }
    for (const auto& [dx, dy] : kForward) {
      const long nx =
          std::clamp(cx + dx, 0L, static_cast<long>(grid.cells_x) - 1);
      const long ny =
          std::clamp(cy + dy, 0L, static_cast<long>(grid.cells_y) - 1);
      if (nx != cx + dx || ny != cy + dy) continue;
      const std::size_t cell = static_cast<std::size_t>(ny) * grid.cells_x +
                               static_cast<std::size_t>(nx);
      for (std::uint32_t t = cell_start_[cell]; t < cell_start_[cell + 1];
           ++t) {
        const double d2 = squared_distance(pi, sorted_pos_[t]);
        fill_[cursor] =
            Candidate{by_cell_[t], static_cast<std::uint8_t>(d2 <= r2_)};
        cursor += static_cast<std::size_t>(d2 <= h2);
      }
    }
    row_size_[i] = cursor - slack_offsets_[s];
  }
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] = offsets[i] + row_size_[i];
  rows.resize(offsets[n]);
  for (std::size_t s = 0; s < n; ++s) {
    const graph::NodeId i = by_cell_[s];
    std::copy(fill_.begin() + static_cast<std::ptrdiff_t>(slack_offsets_[s]),
              fill_.begin() +
                  static_cast<std::ptrdiff_t>(slack_offsets_[s] + row_size_[i]),
              rows.begin() + static_cast<std::ptrdiff_t>(offsets[i]));
  }
}

graph::Graph IncrementalUdg::current_graph() const {
  const std::size_t n = positions_.size();
  graph::Graph g(n);
  for (graph::NodeId i = 0; i < n; ++i) {
    for (std::size_t c = cand_offsets_[i]; c < cand_offsets_[i + 1]; ++c) {
      if (cand_[c].adjacent) g.add_edge(i, cand_[c].other);
    }
  }
  g.finalize();
  return g;
}

void IncrementalUdg::scan_update() {
  // The hot loop: flat, branch-light, allocation-free. Delta entries
  // come out in row order (unsorted); update() sorts them once.
  const std::size_t n = positions_.size();
  for (graph::NodeId i = 0; i < n; ++i) {
    const Point pi = positions_[i];
    for (std::size_t c = cand_offsets_[i]; c < cand_offsets_[i + 1]; ++c) {
      Candidate& cand = cand_[c];
      const auto adjacent = static_cast<std::uint8_t>(
          squared_distance(pi, positions_[cand.other]) <= r2_);
      if (adjacent != cand.adjacent) {
        (adjacent ? delta_.added : delta_.removed)
            .push_back(ordered(i, cand.other));
        cand.adjacent = adjacent;
      }
    }
  }
}

void IncrementalUdg::rebuild_update() {
  old_offsets_.swap(cand_offsets_);
  old_cand_.swap(cand_);
  anchors_ = positions_;
  build_candidates(cand_offsets_, cand_);

  // Diff the flagged (adjacent) entries of the old and new rows without
  // requiring sorted rows: stamp a node's old neighbors with a tag
  // unique to (rebuild, node), then sweep the new row — a flagged new
  // entry with the tag is unchanged (consume the stamp), without it an
  // addition; old flagged entries whose stamp survived are removals. A
  // pair that left the candidate horizon entirely is farther than
  // radius by construction, so dropping out of the candidate set while
  // flagged is exactly "removed"; adjacency is always a subset of the
  // candidate set, so a flagged new entry missing from the old row is
  // exactly "added".
  const std::size_t n = positions_.size();
  stamp_.resize(n, 0);
  for (graph::NodeId i = 0; i < n; ++i) {
    const std::uint64_t tag = ++stamp_base_;
    // Branchless stamping: the adjacent flag is ~50/50 and mispredicts;
    // blend the tag in with a mask instead of branching.
    for (std::size_t a = old_offsets_[i]; a < old_offsets_[i + 1]; ++a) {
      const graph::NodeId o = old_cand_[a].other;
      const auto mask =
          static_cast<std::uint64_t>(0) - old_cand_[a].adjacent;
      stamp_[o] = (stamp_[o] & ~mask) | (tag & mask);
    }
    for (std::size_t b = cand_offsets_[i]; b < cand_offsets_[i + 1]; ++b) {
      const graph::NodeId o = cand_[b].other;
      const bool adj = cand_[b].adjacent != 0;
      const bool unchanged = adj && stamp_[o] == tag;
      if (unchanged) stamp_[o] = 0;  // consume
      if (adj && !unchanged) delta_.added.push_back(ordered(i, o));  // rare
    }
    for (std::size_t a = old_offsets_[i]; a < old_offsets_[i + 1]; ++a) {
      const graph::NodeId o = old_cand_[a].other;
      if (old_cand_[a].adjacent && stamp_[o] == tag) {  // rare
        delta_.removed.push_back(ordered(i, o));
        stamp_[o] = 0;
      }
    }
  }
}

const graph::EdgeDelta& IncrementalUdg::update(
    std::span<const Point> new_points) {
  if (new_points.size() != positions_.size()) {
    throw std::invalid_argument(
        "IncrementalUdg::update: node count cannot change (use churn masks "
        "for arrivals/departures)");
  }
  delta_.clear();
  const std::size_t n = positions_.size();
  if (n == 0) return delta_;

  bool safe = true;
  for (std::size_t i = 0; i < n; ++i) {
    positions_[i] = new_points[i];
    if (safe && squared_distance(positions_[i], anchors_[i]) > safety2_) {
      safe = false;
    }
  }
  if (safe) {
    scan_update();
    ++updates_since_rebuild_;
  } else {
    // Rebuild path. If rebuilds come fast (high speed relative to the
    // skin), widen the skin geometrically: scans get a little wider,
    // but rebuilds — the expensive step — get rarer. Deterministic: a
    // pure function of the position history.
    if (updates_since_rebuild_ < 8 &&
        config_.skin_fraction < config_.max_skin_fraction) {
      config_.skin_fraction =
          std::min(config_.max_skin_fraction, config_.skin_fraction * 1.6);
      const double s = radius_ * config_.skin_fraction;
      safety2_ = (s / 2.0) * (s / 2.0);
    }
    rebuild_update();
    updates_since_rebuild_ = 0;
    ++rebuilds_;
  }
  // Candidate rows are unsorted; the delta contract (ascending, per-pair
  // unique, added ∩ removed = ∅) is established here, once, over the few
  // changed edges.
  std::sort(delta_.added.begin(), delta_.added.end());
  std::sort(delta_.removed.begin(), delta_.removed.end());
  if (!safe) {
    // A rebuild can migrate an unchanged pair between rows (ownership is
    // by discovery order); the diff then reports it as removed from one
    // row and added in the other. Cancel those no-ops pairwise.
    auto& add = delta_.added;
    auto& rem = delta_.removed;
    std::size_t a = 0, r = 0, ao = 0, ro = 0;
    while (a < add.size() && r < rem.size()) {
      if (add[a] < rem[r]) {
        add[ao++] = add[a++];
      } else if (rem[r] < add[a]) {
        rem[ro++] = rem[r++];
      } else {
        ++a;  // in both: the pair never actually changed
        ++r;
      }
    }
    while (a < add.size()) add[ao++] = add[a++];
    while (r < rem.size()) rem[ro++] = rem[r++];
    add.resize(ao);
    rem.resize(ro);
  }
  return delta_;
}

LiveTopology::LiveTopology(std::span<const Point> points, double radius,
                           std::span<const char> alive,
                           IncrementalUdg::Config config)
    : udg_(points, radius, config), geometric_(udg_.current_graph()) {
  if (alive.empty()) return;
  if (alive.size() != points.size()) {
    throw std::invalid_argument("LiveTopology: alive mask size mismatch");
  }
  masked_ = true;
  alive_.assign(alive.begin(), alive.end());
  const graph::Graph& geo = geometric_.view();
  graph::Graph m(geo.node_count());
  for (const auto& [a, b] : geo.edges()) {
    if (alive_[a] && alive_[b]) m.add_edge(a, b);
  }
  m.finalize();
  effective_.reset(std::move(m));
}

const graph::EdgeDelta& LiveTopology::update(std::span<const Point> new_points,
                                             std::span<const char> alive) {
  const graph::EdgeDelta& geo_delta = udg_.update(new_points);
  geometric_.apply_delta(geo_delta);
  if (!masked_) {
    if (!alive.empty()) {
      throw std::invalid_argument(
          "LiveTopology: alive mask passed to an unmasked topology "
          "(construct with the initial mask to enable churn)");
    }
    return geo_delta;
  }
  if (alive.size() != alive_.size()) {
    throw std::invalid_argument("LiveTopology: alive mask size mismatch");
  }

  // Compose the geometric delta with the mask transition into one delta
  // over the effective graph M = {edges with both endpoints up}:
  //   removed: geometric removals that were in M, plus every M-edge of a
  //            node that just went down;
  //   added:   geometric additions with both endpoints up now, plus every
  //            current geometric edge of a node that just came up whose
  //            partner is up (such edges were masked out before).
  // Each rule skips pairs another rule already emitted, so the result is
  // duplicate-free; DynamicGraph's validation backstops the composition.
  const graph::Graph& geo = geometric_.view();   // post-move state
  const graph::Graph& m = effective_.view();     // pre-update state
  effective_delta_.clear();
  auto newly_down = [&](graph::NodeId p) { return alive_[p] && !alive[p]; };
  auto newly_up = [&](graph::NodeId p) { return !alive_[p] && alive[p]; };

  for (const auto& e : geo_delta.removed) {
    if (m.adjacent(e.first, e.second)) effective_delta_.removed.push_back(e);
  }
  for (graph::NodeId t = 0; t < alive_.size(); ++t) {
    if (!newly_down(t)) continue;
    for (const graph::NodeId j : m.neighbors(t)) {
      if (newly_down(j) && j < t) continue;  // handled from j's loop
      const auto e = ordered(t, j);
      if (contains(geo_delta.removed, e)) continue;  // emitted above
      effective_delta_.removed.push_back(e);
    }
  }

  for (const auto& e : geo_delta.added) {
    if (alive[e.first] && alive[e.second]) effective_delta_.added.push_back(e);
  }
  for (graph::NodeId t = 0; t < alive_.size(); ++t) {
    if (!newly_up(t)) continue;
    for (const graph::NodeId j : geo.neighbors(t)) {
      if (!alive[j]) continue;
      if (newly_up(j) && j < t) continue;
      const auto e = ordered(t, j);
      if (contains(geo_delta.added, e)) continue;
      effective_delta_.added.push_back(e);
    }
  }

  std::sort(effective_delta_.removed.begin(), effective_delta_.removed.end());
  std::sort(effective_delta_.added.begin(), effective_delta_.added.end());
  effective_.apply_delta(effective_delta_);
  alive_.assign(alive.begin(), alive.end());
  return effective_delta_;
}

}  // namespace ssmwn::topology
