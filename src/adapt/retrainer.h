#ifndef QFCARD_ADAPT_RETRAINER_H_
#define QFCARD_ADAPT_RETRAINER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "adapt/feedback_bus.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "estimators/registry.h"
#include "serve/model_store.h"
#include "serve/serving_estimator.h"

namespace qfcard::adapt {

/// Knobs for Retrainer. Defaults retrain the paper's strongest single-table
/// combination (gradient boosting over the complex QFT) on the feedback
/// bus's retained window, holding out 20% to score promotion.
struct RetrainerOptions {
  /// Registry key (est::MakeEstimator) used to build each candidate.
  std::string estimator_name = "gb+complex";
  est::EstimatorOptions estimator_opts;
  /// A retrain run becomes a no-op below this much feedback. Clamped to
  /// [2, bus capacity] so both holdout splits are non-empty.
  size_t min_feedback = 64;
  /// Fraction of the feedback window held out (never trained on) to score
  /// the stale model against the candidate. Clamped so both splits are
  /// non-empty.
  double holdout_fraction = 0.2;
  /// Passed through to CardinalityEstimator::Train for early stopping.
  double valid_fraction = 0.1;
  /// Base seed; each run r shuffles with MixSeed(seed, r) so runs are
  /// deterministic yet draw distinct splits.
  uint64_t seed = 20260806;
  /// When set, promoted candidates are published here before the swap, and
  /// the store's version number becomes the serving version. Not owned.
  serve::ModelStore* store = nullptr;
};

/// Outcome of one retrain run.
struct RetrainResult {
  bool attempted = false;   ///< false when feedback was insufficient
  bool promoted = false;    ///< candidate beat the stale model and swapped in
  size_t feedback_used = 0; ///< window size the run saw
  double stale_p95 = 0.0;     ///< holdout p95 q-error of the active model
  double candidate_p95 = 0.0; ///< holdout p95 q-error of the candidate
  uint64_t version = 0;     ///< serving version after the run
  std::string detail;       ///< human-readable reason (promoted/rejected/...)
};

/// Closes the drift loop (docs/serving.md): each RetrainNow() retrains a
/// candidate, synchronously on the calling thread, on the FeedbackBus's
/// retained window — the one feedback window in the system
/// (docs/adaptive.md); producers reach it through FeedbackBus::Publish. The
/// caller owns the trigger (a drift check, a schedule, an operator). The
/// candidate is promoted — published to the store and hot-swapped into the
/// ServingEstimator — only when its holdout p95 q-error strictly improves on
/// the active model's; otherwise the active model keeps serving.
///
/// Promotion policy: p95, not mean, is the gate (the paper's Figure 5
/// observation — drift shows in the tail). The holdout is carved from the
/// feedback window before training, so the candidate is never scored on
/// queries it trained on, and the stale model is scored on the same holdout.
///
/// Thread-safety: RetrainNow is safe from any thread; concurrent runs are
/// serialized on an internal mutex, so each sees the swap the previous one
/// made. The retrainer owns no thread.
class Retrainer {
 public:
  /// `serving`, `catalog` and `bus` are not owned and must outlive the
  /// retrainer (as must options.store when set).
  Retrainer(serve::ServingEstimator* serving, const storage::Catalog* catalog,
            const FeedbackBus* bus, RetrainerOptions options);

  Retrainer(const Retrainer&) = delete;
  Retrainer& operator=(const Retrainer&) = delete;

  /// Runs one retrain on the calling thread on a snapshot of the bus window
  /// and returns its outcome. Errors (estimator construction, training,
  /// store publish) surface as a Status; "not enough feedback" is a
  /// successful result with attempted == false.
  common::StatusOr<RetrainResult> RetrainNow();

 private:
  serve::ServingEstimator* const serving_;
  const storage::Catalog* const catalog_;
  const FeedbackBus* const bus_;
  const RetrainerOptions opts_;

  /// Serializes whole retrain runs (held across training, which is slow).
  /// Lock order: retrain_mu_ before FeedbackBus::mu_ (the window snapshot).
  common::Mutex retrain_mu_;
  /// Runs started so far; run r shuffles with MixSeed(seed, r).
  uint64_t runs_ QFCARD_GUARDED_BY(retrain_mu_) = 0;
};

}  // namespace qfcard::adapt

#endif  // QFCARD_ADAPT_RETRAINER_H_
