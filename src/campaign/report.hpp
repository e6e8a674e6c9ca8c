// Campaign result writers: CSV, JSON, and a console table.
//
// Both machine formats are fully deterministic: fixed column/key order,
// fixed number formatting (shortest round-trip-exact decimal, via
// std::to_chars — immune to LC_NUMERIC; the writers additionally pin
// the classic locale on their streams so integer grouping can't leak in
// either), no timestamps or environment echoes. Running the same plan
// twice — or on a different thread count, or under a different locale —
// must produce byte-identical files; the replay test diffs these
// writers' output to enforce that.
//
// Schema versioning: the config columns are the grid-point rows of the
// spec's axis table, in table order, and a gated row's column (and its
// gate's metric rows) appears only in a plan where that gate is on at
// some point (`plan_uses`). A purely synchronous plan is thus written in
// the legacy schema, and each later axis — async, live, verify,
// dirty stepping — left every plan without it byte-identical. Cells of a
// gated row are empty (CSV) or omitted (JSON) on points where its gate
// does not apply. Each row set carries only the metrics its engine
// measured (see aggregate.hpp's metric_applies) — never a fabricated
// zero that would be indistinguishable from a measurement. The schema is
// a pure function of the plan, never of the environment.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/spec.hpp"
#include "util/table.hpp"

namespace ssmwn::campaign {

/// True iff `gate` is on at some grid point (gate_on): the plan's report
/// then carries the gate's config columns — and, for async, live and
/// verify, its metric rows.
[[nodiscard]] bool plan_uses(const CampaignPlan& plan, Gate gate) noexcept;

/// Number of metric rows the writers emit per grid point:
/// kSyncMetricCount for a purely synchronous plan, kAsyncMetricCount
/// with the async axis, kLiveMetricCount with live points,
/// kMetricNames.size() with verify points.
[[nodiscard]] std::size_t report_metric_count(
    const CampaignPlan& plan) noexcept;

/// One row per (grid point, metric): the scenario's full configuration,
/// the metric name, and its summary statistics.
void write_csv(std::ostream& out, const CampaignPlan& plan,
               const std::vector<ScenarioAggregate>& aggregates);

/// Single JSON document: campaign header plus a `scenarios` array with
/// each grid point's configuration and metric summaries.
void write_json(std::ostream& out, const CampaignPlan& plan,
                const std::vector<ScenarioAggregate>& aggregates);

/// Human-oriented summary: one row per grid point, headline metrics only.
[[nodiscard]] util::Table summary_table(
    const CampaignPlan& plan,
    const std::vector<ScenarioAggregate>& aggregates);

}  // namespace ssmwn::campaign
