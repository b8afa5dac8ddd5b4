#ifndef QFCARD_ADAPT_ARBITER_H_
#define QFCARD_ADAPT_ARBITER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/ring.h"
#include "common/thread_annotations.h"
#include "estimators/request.h"

namespace qfcard::adapt {

/// Knobs for TierArbiter. Defaults are tuned for feedback rates of a few
/// records per second per route: windows small enough that a regime change
/// shows within tens of observations, hysteresis strong enough that noisy
/// ties never flap.
struct TierArbiterOptions {
  /// Rolling q-error window per (route, tier), a common::Ring: the one
  /// rolling q-error window in src/.
  size_t window = 48;
  /// Observations a challenger tier needs in its window before it can be
  /// compared at all.
  size_t min_samples = 8;
  /// A challenger must beat the incumbent's rolling p95 by this factor
  /// (challenger_p95 < switch_margin * incumbent_p95) to take over. < 1.0;
  /// the gap is the first half of the hysteresis.
  double switch_margin = 0.8;
  /// After a switch the route holds its tier for this many further
  /// observations — the second half of the hysteresis (no flapping even
  /// when two tiers straddle the margin).
  size_t hold_observations = 16;
  /// Tier served before any evidence exists. The ML path is the trained
  /// default; routes demote away from it only when feedback shows a cheaper
  /// tier doing better.
  est::ServedTier initial = est::ServedTier::kMl;
  /// Recent switch events retained for RecentSwitches().
  size_t switch_log = 64;
};

/// Per-route tier selection for the adaptive loop (docs/adaptive.md):
/// every feedback record scores all three tiers counterfactually (what
/// would residual / kNN / ML have estimated?), the q-errors feed per-tier
/// rolling windows, and the arbiter switches a route's serving tier when a
/// challenger's window p95 beats the incumbent's by the configured margin —
/// with a hold-off period after every switch so tiers never flap.
///
/// Tier order for "promotion" language: residual < knn < ml (cheapest to
/// heaviest); a switch toward the heavier tier is a promotion.
///
/// Thread-safe (one mutex); deterministic for a fixed observation order.
class TierArbiter {
 public:
  explicit TierArbiter(TierArbiterOptions options = {});
  TierArbiter(const TierArbiter&) = delete;
  TierArbiter& operator=(const TierArbiter&) = delete;

  /// Feeds one counterfactual q-error (>= 1) for `tier` on `fss`, then
  /// re-evaluates the route's tier choice.
  void ObserveTier(uint64_t fss, est::ServedTier tier, double qerror);

  /// The arbiter's current choice for a route, with the human-readable
  /// reason the adaptive front copies into EstimateResponse::tier_reason.
  struct Decision {
    est::ServedTier tier = est::ServedTier::kMl;
    std::string reason;
  };
  Decision Choose(uint64_t fss) const;

  /// Drops the rolling window of one tier on every route — called when that
  /// tier's world changed wholesale (the ML model was hot-swapped), so
  /// pre-change q-errors stop vetoing it.
  void ResetTier(est::ServedTier tier);

  /// One recorded switch, oldest first in RecentSwitches().
  struct TierSwitch {
    uint64_t fss = 0;
    est::ServedTier from = est::ServedTier::kMl;
    est::ServedTier to = est::ServedTier::kMl;
    double from_p95 = 0.0;  ///< incumbent window p95 at the switch
    double to_p95 = 0.0;    ///< challenger window p95 at the switch
    uint64_t at_observation = 0;  ///< global observation count at the switch
  };
  std::vector<TierSwitch> RecentSwitches() const;

  /// Rolling window p95 of one (route, tier); 0 when below min_samples.
  double TierP95(uint64_t fss, est::ServedTier tier) const;

  /// Total switches across all routes.
  uint64_t switches() const;
  /// Routes currently tracked.
  size_t RouteCount() const;

 private:
  struct RouteState {
    est::ServedTier current;
    std::string reason;
    /// Rolling q-errors keyed by static_cast<int>(tier).
    std::map<int, common::Ring<double>> windows;
    size_t since_switch = 0;  ///< observations since the last switch
  };

  double WindowP95Locked(const common::Ring<double>& w) const
      QFCARD_REQUIRES(mu_);
  void EvaluateLocked(uint64_t fss, RouteState* route) QFCARD_REQUIRES(mu_);

  const TierArbiterOptions opts_;

  mutable common::Mutex mu_;
  std::map<uint64_t, RouteState> routes_ QFCARD_GUARDED_BY(mu_);
  /// pushed() is the total switch count.
  common::Ring<TierSwitch> switch_log_ QFCARD_GUARDED_BY(mu_);
  uint64_t observations_ QFCARD_GUARDED_BY(mu_) = 0;
};

}  // namespace qfcard::adapt

#endif  // QFCARD_ADAPT_ARBITER_H_
