#ifndef QFCARD_ADAPT_ADAPTIVE_ESTIMATOR_H_
#define QFCARD_ADAPT_ADAPTIVE_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adapt/arbiter.h"
#include "adapt/feedback_bus.h"
#include "adapt/online_knn.h"
#include "adapt/residual.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "estimators/estimator.h"
#include "estimators/registry.h"
#include "featurize/featurizer.h"
#include "serve/serving_estimator.h"

namespace qfcard::adapt {

/// Which tiers the adaptive front may serve (the --adaptive=MODE flag).
enum class AdaptiveMode {
  kOff,           ///< passthrough to the ML path (no adaptation)
  kKnnOnly,       ///< kNN when it has neighbors, ML otherwise
  kResidualOnly,  ///< corrected-histogram tier always
  kAuto,          ///< TierArbiter picks per route from rolling q-errors
};

/// Parses "off" / "knn" / "residual" / "auto" (case-sensitive, the flag
/// vocabulary of docs/adaptive.md).
common::StatusOr<AdaptiveMode> ParseAdaptiveMode(const std::string& text);
const char* AdaptiveModeName(AdaptiveMode mode);

struct AdaptiveOptions {
  AdaptiveMode mode = AdaptiveMode::kAuto;
  OnlineKnnOptions knn;
  ResidualOptions residual;
  TierArbiterOptions arbiter;
};

/// The always-on online-learning front of the serving stack
/// (docs/adaptive.md): a CardinalityEstimator that answers every query from
/// one of three tiers — corrected histogram (base + ResidualCorrector),
/// OnlineKnn, or the full ML path — chosen per feature-space route by the
/// TierArbiter. Feedback arrives through a FeedbackBus subscription (or
/// IngestFeedback directly): each record is first scored counterfactually
/// against all three tiers (predict-then-learn, so no tier is graded on a
/// query it already absorbed), then folded into the kNN store and the
/// residual EWMA.
///
/// Estimation is const-thread-safe (learner state is mutex-guarded), so the
/// front serves through serve::ServingEstimator / EstimationServer like any
/// other estimator, and responses carry the serving tier and the arbiter's
/// reason (EstimateResponse::tier/tier_reason). Determinism: with a fixed
/// feedback order, estimates are byte-identical at any QFCARD_THREADS and
/// any batch grouping — every tier is a deterministic function of learner
/// state, and the ML tier's batched answers equal its per-query ones.
class AdaptiveEstimator : public est::CardinalityEstimator {
 public:
  /// `base` is the cheap synopses estimator the residual tier corrects
  /// (PostgresStyleEstimator in the stock wiring), `ml` the heavy path
  /// (usually a serve::ServingEstimator so retrains hot-swap underneath),
  /// `featurizer` the QFT producing kNN feature vectors. All three must be
  /// const-thread-safe and non-null.
  AdaptiveEstimator(std::shared_ptr<const est::CardinalityEstimator> base,
                    std::shared_ptr<const est::CardinalityEstimator> ml,
                    std::shared_ptr<const featurize::Featurizer> featurizer,
                    AdaptiveOptions options = {});
  ~AdaptiveEstimator() override;

  /// Subscribes to `bus` (not owned; must outlive this estimator or a
  /// Disconnect call). Replaces any previous connection.
  void ConnectTo(FeedbackBus* bus);
  /// Drops the bus subscription; safe when none exists.
  void Disconnect();

  /// When set (not owned), the estimator watches the serving version and
  /// resets the arbiter's ML q-error windows on every hot-swap — a promoted
  /// model should not be vetoed by its predecessor's mistakes. Usually the
  /// same object as `ml`.
  void TrackServingVersion(const serve::ServingEstimator* serving);

  /// Feeds one feedback record: counterfactual tier scoring, then learning.
  /// What the bus subscription calls; public for bus-less callers (tests,
  /// benches with hand-rolled loops).
  void IngestFeedback(const FeedbackRecord& record);

  /// The one estimate path; EstimateCard is one request of it. Picks each
  /// request's tier (fss = route_hint, else the query's feature-space
  /// hash), answers residual requests and kNN requests with neighbors
  /// inline, and every ML request (plus kNN requests that raced to empty)
  /// with one ml_->EstimateBatch call. Stamps tier/tier_reason. On failure
  /// returns the error of the smallest failing index, as the serial
  /// per-request loop would.
  common::StatusOr<std::vector<est::EstimateResponse>> EstimateRequests(
      common::Gathered<est::EstimateRequest> requests) const override;
  common::StatusOr<double> EstimateCard(const query::Query& q) const override;

  common::Status Train(const std::vector<query::Query>& queries,
                       const std::vector<double>& cards, double valid_fraction,
                       uint64_t seed) override;

  std::string name() const override;
  size_t SizeBytes() const override;

  /// Learner internals, for tests, benches, and reports.
  const OnlineKnn& knn() const { return knn_; }
  const ResidualCorrector& residual() const { return residual_; }
  const TierArbiter& arbiter() const { return arbiter_; }
  AdaptiveMode mode() const { return opts_.mode; }

  /// Feedback records ingested so far.
  uint64_t ingested() const;

 private:
  struct TierPick {
    est::ServedTier tier = est::ServedTier::kMl;
    std::string reason;
  };
  /// The arbitration policy: mode + arbiter decision + availability
  /// fallbacks (kNN without neighbors falls back to ML).
  TierPick PickTier(uint64_t fss) const;

  const std::shared_ptr<const est::CardinalityEstimator> base_;
  const std::shared_ptr<const est::CardinalityEstimator> ml_;
  const std::shared_ptr<const featurize::Featurizer> featurizer_;
  const AdaptiveOptions opts_;

  // qfcard-lint: ok(guarded-by): internally synchronized (each owns its mutex)
  OnlineKnn knn_;
  // qfcard-lint: ok(guarded-by): internally synchronized (each owns its mutex)
  ResidualCorrector residual_;
  // qfcard-lint: ok(guarded-by): internally synchronized (each owns its mutex)
  TierArbiter arbiter_;

  mutable common::Mutex mu_;
  FeedbackBus* bus_ QFCARD_GUARDED_BY(mu_) = nullptr;
  uint64_t subscription_ QFCARD_GUARDED_BY(mu_) = 0;
  const serve::ServingEstimator* tracked_serving_ QFCARD_GUARDED_BY(mu_) =
      nullptr;
  uint64_t last_serving_version_ QFCARD_GUARDED_BY(mu_) = 0;
  uint64_t ingested_ QFCARD_GUARDED_BY(mu_) = 0;
};

/// Capability metadata for the adaptive front, mirroring
/// est::RegisteredEstimatorInfos() entries. The registry itself cannot
/// construct one (adapt sits above estimators in the layer order), so the
/// CLI and reports surface this info directly.
est::EstimatorInfo AdaptiveEstimatorInfo();

}  // namespace qfcard::adapt

#endif  // QFCARD_ADAPT_ADAPTIVE_ESTIMATOR_H_
