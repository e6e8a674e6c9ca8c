#include "core/rank.hpp"

namespace ssmwn::core {

bool precedes(const NodeRank& p, const NodeRank& q, bool incumbency) noexcept {
  return packed_precedes(pack_rank(p, incumbency), pack_rank(q, incumbency));
}

}  // namespace ssmwn::core
