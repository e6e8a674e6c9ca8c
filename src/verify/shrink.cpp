#include "verify/shrink.hpp"

#include <algorithm>
#include <vector>

namespace ssmwn::verify {

namespace {

/// The candidate moves, most aggressive first. Each returns true iff it
/// changed the spec (an unchanged candidate is not worth a re-run).
using Move = bool (*)(TrialSpec&);

bool halve_n(TrialSpec& spec) {
  if (spec.n < 4) return false;
  spec.n /= 2;
  return true;
}

bool decrement_n(TrialSpec& spec) {
  if (spec.n <= 2) return false;
  --spec.n;
  return true;
}

bool simplify_daemon(TrialSpec& spec) {
  if (spec.daemon == Daemon::kSynchronous) return false;
  spec.daemon = Daemon::kSynchronous;
  return true;
}

bool simplify_variant(TrialSpec& spec) {
  if (spec.variant == campaign::Variant::kBasic) return false;
  spec.variant = campaign::Variant::kBasic;
  return true;
}

bool lossless_medium(TrialSpec& spec) {
  if (spec.tau >= 1.0) return false;
  spec.tau = 1.0;
  return true;
}

constexpr Move kMoves[] = {halve_n, simplify_daemon, simplify_variant,
                           lossless_medium, decrement_n};

}  // namespace

ShrinkResult shrink(const TrialSpec& failing, const TrialHooks* hooks,
                    std::size_t budget) {
  ShrinkResult out;
  out.minimal = failing;

  // Reproduce first: a spec that passes has nothing to shrink, and the
  // violation class it fails with is the invariant every candidate must
  // preserve (shrinking a disagreement into a mere timeout would change
  // the bug under investigation).
  out.minimal_result = run_trial(failing, hooks);
  ++out.attempts;
  if (out.minimal_result.passed) return out;
  out.reproduced = true;
  const Violation target = out.minimal_result.violation;

  bool progressed = true;
  while (progressed && out.attempts < budget) {
    progressed = false;
    for (const Move move : kMoves) {
      if (out.attempts >= budget) break;
      TrialSpec candidate = out.minimal;
      if (!move(candidate)) continue;
      const TrialResult result = run_trial(candidate, hooks);
      ++out.attempts;
      if (result.passed || result.violation != target) continue;
      out.minimal = candidate;
      out.minimal_result = result;
      ++out.shrinks;
      progressed = true;
      // Greedy restart: after any acceptance, retry the aggressive
      // moves first — halving from the new, smaller spec.
      break;
    }
  }
  return out;
}

}  // namespace ssmwn::verify
