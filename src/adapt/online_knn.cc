#include "adapt/online_knn.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace qfcard::adapt {

namespace {

/// Squared L2 distance over the shorter common prefix: feature vectors of a
/// route share one QFT so lengths normally match; a mismatch (schema
/// evolved mid-stream) still orders sensibly instead of reading past the
/// end.
double SquaredDistance(const std::vector<float>& a,
                       const std::vector<float>& b) {
  const size_t n = std::min(a.size(), b.size());
  double d = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double diff = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    d += diff * diff;
  }
  const size_t longer = std::max(a.size(), b.size());
  d += static_cast<double>(longer - n);  // missing dims count as unit error
  return d;
}

}  // namespace

OnlineKnn::OnlineKnn(OnlineKnnOptions options) : opts_(options) {}

void OnlineKnn::Observe(uint64_t fss, const std::vector<float>& features,
                        double log_card) {
  common::MutexLock lock(&mu_);
  const uint64_t seq = ++next_seq_;

  auto it = routes_.find(fss);
  if (it == routes_.end()) {
    // Admit the route, evicting the one with the oldest last write when the
    // route bound is hit (whole-route recency, mirroring neighbor recency).
    if (routes_.size() >= opts_.max_routes && !routes_.empty()) {
      auto oldest = routes_.begin();
      for (auto cand = routes_.begin(); cand != routes_.end(); ++cand) {
        if (cand->second.last_write < oldest->second.last_write) oldest = cand;
      }
      total_neighbors_ -= oldest->second.neighbors->size();
      obs::IncrementCounter("adapt.knn.evicted", "",
                            oldest->second.neighbors->size());
      routes_.erase(oldest);
    }
    it = routes_.emplace(fss, RouteStore{}).first;
  }
  RouteStore& store = it->second;
  store.last_write = seq;
  // Copy-on-write: predictions still ranking the old snapshot keep it.
  auto next = std::make_shared<Neighbors>(*store.neighbors);

  // Near-duplicate features refine the stored target in place (AQO's
  // OkNNr_learn path): the neighborhood stays diverse instead of filling
  // with copies of one popular query shape.
  for (Neighbor& n : *next) {
    if (SquaredDistance(*n.features, features) <= opts_.update_epsilon) {
      n.log_card += opts_.learning_rate * (log_card - n.log_card);
      n.seq = seq;
      store.neighbors = std::move(next);
      obs::IncrementCounter("adapt.knn.updated");
      return;
    }
  }

  Neighbor fresh{std::make_shared<const std::vector<float>>(features),
                 log_card, seq};
  if (next->size() >= opts_.capacity_per_route && !next->empty()) {
    auto oldest = next->begin();
    for (auto cand = next->begin(); cand != next->end(); ++cand) {
      if (cand->seq < oldest->seq) oldest = cand;
    }
    *oldest = std::move(fresh);
    store.neighbors = std::move(next);
    obs::IncrementCounter("adapt.knn.evicted");
    obs::IncrementCounter("adapt.knn.inserted");
    return;
  }
  next->push_back(std::move(fresh));
  store.neighbors = std::move(next);
  ++total_neighbors_;
  obs::IncrementCounter("adapt.knn.inserted");
}

std::optional<double> OnlineKnn::PredictLog(
    uint64_t fss, const std::vector<float>& features) const {
  std::shared_ptr<const Neighbors> snapshot;
  {
    common::MutexLock lock(&mu_);
    const auto it = routes_.find(fss);
    if (it == routes_.end()) return std::nullopt;
    snapshot = it->second.neighbors;
  }
  const Neighbors& neighbors = *snapshot;
  if (neighbors.empty()) return std::nullopt;

  // Rank by (distance, insertion seq): the seq tie-break keeps the k-subset
  // — and therefore the prediction — deterministic when distances tie.
  // The snapshot is immutable, so the ranking runs outside mu_.
  std::vector<std::pair<double, size_t>> ranked;
  ranked.reserve(neighbors.size());
  for (size_t i = 0; i < neighbors.size(); ++i) {
    ranked.emplace_back(SquaredDistance(*neighbors[i].features, features), i);
  }
  std::sort(ranked.begin(), ranked.end(),
            [&](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return neighbors[a.second].seq < neighbors[b.second].seq;
            });
  const size_t k = std::min<size_t>(
      neighbors.size(), static_cast<size_t>(std::max(opts_.k, 1)));

  // Exact (or epsilon-close) match short-circuits to the stored value.
  if (ranked[0].first <= opts_.update_epsilon) {
    return neighbors[ranked[0].second].log_card;
  }

  // Inverse-distance weighting over the k nearest (OkNNr_predict).
  double weight_sum = 0.0;
  double value = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const double w = 1.0 / (1e-3 + std::sqrt(ranked[i].first));
    weight_sum += w;
    value += w * neighbors[ranked[i].second].log_card;
  }
  return value / weight_sum;
}

size_t OnlineKnn::NeighborCount(uint64_t fss) const {
  common::MutexLock lock(&mu_);
  const auto it = routes_.find(fss);
  return it == routes_.end() ? 0 : it->second.neighbors->size();
}

size_t OnlineKnn::RouteCount() const {
  common::MutexLock lock(&mu_);
  return routes_.size();
}

size_t OnlineKnn::TotalNeighbors() const {
  common::MutexLock lock(&mu_);
  return total_neighbors_;
}

size_t OnlineKnn::SizeBytes() const {
  common::MutexLock lock(&mu_);
  size_t bytes = sizeof(*this);
  for (const auto& [fss, store] : routes_) {
    (void)fss;
    bytes += sizeof(RouteStore);
    for (const Neighbor& n : *store.neighbors) {
      bytes += sizeof(Neighbor) + n.features->size() * sizeof(float);
    }
  }
  return bytes;
}

}  // namespace qfcard::adapt
