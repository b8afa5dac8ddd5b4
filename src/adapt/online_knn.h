#ifndef QFCARD_ADAPT_ONLINE_KNN_H_
#define QFCARD_ADAPT_ONLINE_KNN_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace qfcard::adapt {

/// Knobs for OnlineKnn. Defaults follow AQO's OkNNr shape (SNIPPETS.md
/// snippets 1-2): small neighborhoods, in-place target refinement for
/// near-duplicate feature vectors, strict per-route and global bounds so
/// memory stays O(max_routes * capacity_per_route * dim).
struct OnlineKnnOptions {
  /// Neighbors consulted per prediction (the k of kNN).
  int k = 5;
  /// Neighbors retained per route; beyond this the least recently written
  /// neighbor is evicted.
  size_t capacity_per_route = 64;
  /// Routes retained; beyond this the route with the oldest last write is
  /// evicted wholesale.
  size_t max_routes = 256;
  /// Squared-distance threshold under which Observe refines the existing
  /// neighbor's target instead of inserting a near-duplicate.
  double update_epsilon = 1e-9;
  /// Weight of the new observation when refining in place (EWMA).
  double learning_rate = 0.5;
};

/// Per-route (serve::FeatureSpaceHash-keyed) bounded neighbor stores with
/// distance-weighted log-cardinality prediction — the kNN tier of the
/// adaptive loop (docs/adaptive.md), after AQO's OkNNr_predict: each
/// executed query becomes a (features, log2 card) neighbor; a prediction
/// inverse-distance-weights the k nearest neighbors of the same route.
/// O(capacity * dim) per Observe/Predict, no retraining.
///
/// Thread-safe: one mutex over the store, and each route's neighbors are an
/// immutable snapshot that Observe replaces whole, so PredictLog ranks
/// outside the lock and a write never waits on a prediction's ranking.
/// Deterministic: ties in the neighbor ranking break by insertion sequence,
/// so a fixed observation order reproduces identical predictions at any
/// thread count.
class OnlineKnn {
 public:
  explicit OnlineKnn(OnlineKnnOptions options = {});
  OnlineKnn(const OnlineKnn&) = delete;
  OnlineKnn& operator=(const OnlineKnn&) = delete;

  /// Learns one executed query: inserts (features, log_card) into the
  /// route's store, refining in place when an almost-identical neighbor
  /// exists, evicting by write recency when bounds are hit.
  void Observe(uint64_t fss, const std::vector<float>& features,
               double log_card);

  /// Distance-weighted log2-cardinality prediction from the route's k
  /// nearest neighbors; nullopt when the route has no neighbors (callers
  /// fall back to another tier). An exact feature match returns that
  /// neighbor's stored value.
  std::optional<double> PredictLog(uint64_t fss,
                                   const std::vector<float>& features) const;

  /// Neighbors currently stored for a route (0 for unknown routes).
  size_t NeighborCount(uint64_t fss) const;
  /// Routes currently stored.
  size_t RouteCount() const;
  /// Neighbors stored across all routes.
  size_t TotalNeighbors() const;
  /// Approximate memory footprint of the neighbor stores.
  size_t SizeBytes() const;

 private:
  struct Neighbor {
    /// Shared by every snapshot holding this neighbor: copying a snapshot
    /// copies no feature vector.
    std::shared_ptr<const std::vector<float>> features;
    double log_card = 0.0;
    uint64_t seq = 0;  ///< last write (insert or refine), for eviction
  };
  using Neighbors = std::vector<Neighbor>;
  struct RouteStore {
    /// Never null; replaced (copy-on-write), never mutated in place.
    std::shared_ptr<const Neighbors> neighbors =
        std::make_shared<const Neighbors>();
    uint64_t last_write = 0;
  };

  const OnlineKnnOptions opts_;

  mutable common::Mutex mu_;
  std::map<uint64_t, RouteStore> routes_ QFCARD_GUARDED_BY(mu_);
  uint64_t next_seq_ QFCARD_GUARDED_BY(mu_) = 0;
  size_t total_neighbors_ QFCARD_GUARDED_BY(mu_) = 0;
};

}  // namespace qfcard::adapt

#endif  // QFCARD_ADAPT_ONLINE_KNN_H_
