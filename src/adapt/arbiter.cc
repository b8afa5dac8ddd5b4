#include "adapt/arbiter.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stats.h"
#include "common/str_util.h"
#include "obs/metrics.h"

namespace qfcard::adapt {

namespace {

const est::ServedTier kTiers[] = {est::ServedTier::kHistogramResidual,
                                  est::ServedTier::kKnn, est::ServedTier::kMl};

}  // namespace

TierArbiter::TierArbiter(TierArbiterOptions options)
    : opts_(options), switch_log_(options.switch_log) {}

double TierArbiter::WindowP95Locked(const common::Ring<double>& w) const {
  if (w.pushed() < opts_.min_samples) return 0.0;
  return common::Quantiles(w.Snapshot(), {0.95})[0];
}

void TierArbiter::EvaluateLocked(uint64_t fss, RouteState* route) {
  if (route->since_switch < opts_.hold_observations) return;
  const auto incumbent_it = route->windows.find(
      static_cast<int>(route->current));
  const double incumbent_p95 =
      incumbent_it == route->windows.end()
          ? 0.0
          : WindowP95Locked(incumbent_it->second);
  // Incumbent warming up (has observations but fewer than min_samples):
  // wait for a comparable window instead of switching on no evidence. Only
  // a truly empty incumbent window — erased by ResetTier after a model
  // hot-swap — concedes to any measured challenger below.
  if (incumbent_p95 <= 0.0 && incumbent_it != route->windows.end() &&
      incumbent_it->second.pushed() > 0) {
    return;
  }

  est::ServedTier best = route->current;
  double best_p95 = incumbent_p95;
  for (const est::ServedTier tier : kTiers) {
    if (tier == route->current) continue;
    const auto it = route->windows.find(static_cast<int>(tier));
    if (it == route->windows.end()) continue;
    const double p95 = WindowP95Locked(it->second);
    if (p95 <= 0.0) continue;  // below min_samples: not comparable yet
    // A challenger needs a margin win over the incumbent — and over any
    // earlier challenger this pass — to take the route. When the incumbent
    // has no comparable window (just reset after a swap), any measured
    // challenger wins.
    const double bar = best_p95 > 0.0 ? opts_.switch_margin * best_p95
                                      : std::numeric_limits<double>::max();
    if (p95 < bar) {
      best = tier;
      best_p95 = p95;
    }
  }
  if (best == route->current) return;

  TierSwitch sw;
  sw.fss = fss;
  sw.from = route->current;
  sw.to = best;
  sw.from_p95 = incumbent_p95;
  sw.to_p95 = best_p95;
  sw.at_observation = observations_;
  switch_log_.Push(sw);
  route->current = best;
  route->since_switch = 0;
  route->reason = common::StrFormat(
      "switched %s->%s: p95 %.2f vs %.2f over last %zu labeled",
      est::ServedTierName(sw.from), est::ServedTierName(sw.to), sw.to_p95,
      sw.from_p95, opts_.window);
  obs::IncrementCounter("adapt.tier.switches",
                        std::string("to=") + est::ServedTierName(best));
}

void TierArbiter::ObserveTier(uint64_t fss, est::ServedTier tier,
                              double qerror) {
  common::MutexLock lock(&mu_);
  ++observations_;
  auto it = routes_.find(fss);
  if (it == routes_.end()) {
    RouteState fresh;
    fresh.current = opts_.initial;
    fresh.reason = std::string("initial tier ") +
                   est::ServedTierName(opts_.initial);
    fresh.since_switch = opts_.hold_observations;  // no artificial hold-off
    it = routes_.emplace(fss, std::move(fresh)).first;
  }
  RouteState& route = it->second;
  const double clamped = std::max(qerror, 1.0);
  route.windows.try_emplace(static_cast<int>(tier), opts_.window)
      .first->second.Push(clamped);
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .HistogramNamed("adapt.qerror", obs::QErrorBounds(),
                        std::string("tier=") + est::ServedTierName(tier))
        ->Observe(clamped);
  }
  ++route.since_switch;
  EvaluateLocked(fss, &route);
}

TierArbiter::Decision TierArbiter::Choose(uint64_t fss) const {
  common::MutexLock lock(&mu_);
  const auto it = routes_.find(fss);
  Decision decision;
  if (it == routes_.end()) {
    decision.tier = opts_.initial;
    decision.reason = std::string("no feedback yet, initial tier ") +
                      est::ServedTierName(opts_.initial);
    return decision;
  }
  decision.tier = it->second.current;
  decision.reason = it->second.reason;
  return decision;
}

void TierArbiter::ResetTier(est::ServedTier tier) {
  common::MutexLock lock(&mu_);
  for (auto& [fss, route] : routes_) {
    (void)fss;
    route.windows.erase(static_cast<int>(tier));
  }
}

std::vector<TierArbiter::TierSwitch> TierArbiter::RecentSwitches() const {
  common::MutexLock lock(&mu_);
  return switch_log_.Snapshot();
}

double TierArbiter::TierP95(uint64_t fss, est::ServedTier tier) const {
  common::MutexLock lock(&mu_);
  const auto it = routes_.find(fss);
  if (it == routes_.end()) return 0.0;
  const auto w = it->second.windows.find(static_cast<int>(tier));
  if (w == it->second.windows.end()) return 0.0;
  return WindowP95Locked(w->second);
}

uint64_t TierArbiter::switches() const {
  common::MutexLock lock(&mu_);
  return switch_log_.pushed();
}

size_t TierArbiter::RouteCount() const {
  common::MutexLock lock(&mu_);
  return routes_.size();
}

}  // namespace qfcard::adapt
