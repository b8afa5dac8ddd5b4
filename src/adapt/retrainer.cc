#include "adapt/retrainer.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/str_util.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
#include "serve/bundle.h"

namespace qfcard::adapt {

Retrainer::Retrainer(serve::ServingEstimator* serving,
                     const storage::Catalog* catalog, const FeedbackBus* bus,
                     RetrainerOptions options)
    : serving_(serving), catalog_(catalog), bus_(bus), opts_([&] {
        // Degenerate knobs are clamped instead of rejected: the retrainer
        // must stay constructible from any options.
        options.min_feedback = std::max<size_t>(
            2, std::min(options.min_feedback, bus->capacity()));
        return std::move(options);
      }()) {}

common::StatusOr<RetrainResult> Retrainer::RetrainNow() {
  common::MutexLock retrain_lock(&retrain_mu_);
  RetrainResult result;
  std::vector<FeedbackRecord> sample = bus_->Snapshot();
  const uint64_t run = runs_++;
  obs::IncrementCounter("serve.retrain.runs");
  result.version = serving_->ActiveVersion();
  result.feedback_used = sample.size();

  if (sample.size() < opts_.min_feedback) {
    result.detail = common::StrFormat(
        "insufficient feedback (%llu < %llu)",
        static_cast<unsigned long long>(sample.size()),
        static_cast<unsigned long long>(opts_.min_feedback));
    return result;
  }
  result.attempted = true;

  // Deterministic per-run shuffle, then carve the holdout off the front; the
  // candidate never trains on holdout queries and both models are scored on
  // the same holdout.
  common::Rng rng(common::MixSeed(opts_.seed, run));
  rng.Shuffle(sample);
  const size_t n = sample.size();
  const size_t holdout_n = std::clamp<size_t>(
      static_cast<size_t>(opts_.holdout_fraction * static_cast<double>(n)), 1,
      n - 1);

  std::vector<query::Query> holdout_queries, train_queries;
  std::vector<double> holdout_truths, train_truths;
  holdout_queries.reserve(holdout_n);
  holdout_truths.reserve(holdout_n);
  train_queries.reserve(n - holdout_n);
  train_truths.reserve(n - holdout_n);
  for (size_t i = 0; i < n; ++i) {
    if (i < holdout_n) {
      holdout_queries.push_back(sample[i].query);
      holdout_truths.push_back(sample[i].true_card);
    } else {
      train_queries.push_back(sample[i].query);
      train_truths.push_back(sample[i].true_card);
    }
  }

  const auto fail = [&](common::Status status) -> common::Status {
    result.detail = status.ToString();
    obs::IncrementCounter("serve.retrain.errors");
    return status;
  };

  const std::shared_ptr<const est::CardinalityEstimator> active =
      serving_->Active();
  common::StatusOr<std::vector<double>> stale_or =
      active->EstimateBatch(holdout_queries);
  if (!stale_or.ok()) return fail(stale_or.status());
  result.stale_p95 =
      ml::QErrorSummary::FromErrors(ml::QErrors(holdout_truths, *stale_or)).p95;

  common::StatusOr<std::unique_ptr<est::CardinalityEstimator>> candidate_or =
      est::MakeEstimator(opts_.estimator_name, *catalog_, opts_.estimator_opts);
  if (!candidate_or.ok()) return fail(candidate_or.status());
  std::unique_ptr<est::CardinalityEstimator> candidate =
      std::move(candidate_or).value();
  common::Status train_status =
      candidate->Train(train_queries, train_truths, opts_.valid_fraction,
                       common::MixSeed(opts_.seed, run * 2 + 1));
  if (!train_status.ok()) return fail(train_status);

  common::StatusOr<std::vector<double>> cand_or =
      candidate->EstimateBatch(holdout_queries);
  if (!cand_or.ok()) return fail(cand_or.status());
  result.candidate_p95 =
      ml::QErrorSummary::FromErrors(ml::QErrors(holdout_truths, *cand_or)).p95;

  if (result.candidate_p95 < result.stale_p95) {
    uint64_t version = serving_->ActiveVersion() + 1;
    if (opts_.store != nullptr) {
      common::StatusOr<serve::ModelBundle> bundle =
          serve::BundleFromEstimator(*candidate, opts_.estimator_name);
      if (!bundle.ok()) return fail(bundle.status());
      common::StatusOr<uint64_t> published = opts_.store->Publish(*bundle);
      if (!published.ok()) return fail(published.status());
      version = *published;
    }
    serving_->Swap(std::shared_ptr<const est::CardinalityEstimator>(
                       std::move(candidate)),
                   version);
    result.promoted = true;
    result.version = version;
    result.detail = common::StrFormat(
        "promoted: holdout p95 %.3f -> %.3f", result.stale_p95,
        result.candidate_p95);
    obs::IncrementCounter("serve.retrain.promoted");
  } else {
    result.detail = common::StrFormat(
        "rejected: candidate holdout p95 %.3f did not improve on %.3f",
        result.candidate_p95, result.stale_p95);
    obs::IncrementCounter("serve.retrain.rejected");
  }
  return result;
}

}  // namespace qfcard::adapt
