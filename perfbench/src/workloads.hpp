// The four workload drivers; each returns the result its process prints.
#pragma once

#include "common.hpp"

namespace ssmwn::perfbench {

[[nodiscard]] Result run_stabilize(const Options& options);
[[nodiscard]] Result run_mobile(const Options& options);
[[nodiscard]] Result run_campaign_mix(const Options& options);
[[nodiscard]] Result run_serve(const Options& options);

}  // namespace ssmwn::perfbench
