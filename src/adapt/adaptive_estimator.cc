#include "adapt/adaptive_estimator.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "ml/dataset.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/fss.h"

namespace qfcard::adapt {

common::StatusOr<AdaptiveMode> ParseAdaptiveMode(const std::string& text) {
  if (text == "off") return AdaptiveMode::kOff;
  if (text == "knn") return AdaptiveMode::kKnnOnly;
  if (text == "residual") return AdaptiveMode::kResidualOnly;
  if (text == "auto") return AdaptiveMode::kAuto;
  return common::Status::InvalidArgument(
      "adaptive mode must be one of off|knn|residual|auto, got: " + text);
}

namespace {

constexpr size_t kNumTiers = static_cast<size_t>(est::ServedTier::kMl) + 1;

/// The adapt.predictions{tier=<tier>} counter, resolved on the tier's first
/// use (registry pointers stay valid for the process lifetime), so serving
/// a request builds no label string and takes no registry lock.
obs::Counter* PredictionsCounter(est::ServedTier tier) {
  static std::array<std::atomic<obs::Counter*>, kNumTiers> handles{};
  std::atomic<obs::Counter*>& handle = handles[static_cast<size_t>(tier)];
  obs::Counter* counter = handle.load(std::memory_order_acquire);
  if (counter == nullptr) {
    counter = obs::MetricsRegistry::Global().CounterNamed(
        "adapt.predictions",
        std::string("tier=") + est::ServedTierName(tier));
    handle.store(counter, std::memory_order_release);
  }
  return counter;
}

}  // namespace

const char* AdaptiveModeName(AdaptiveMode mode) {
  switch (mode) {
    case AdaptiveMode::kOff: return "off";
    case AdaptiveMode::kKnnOnly: return "knn";
    case AdaptiveMode::kResidualOnly: return "residual";
    case AdaptiveMode::kAuto: return "auto";
  }
  return "off";
}

AdaptiveEstimator::AdaptiveEstimator(
    std::shared_ptr<const est::CardinalityEstimator> base,
    std::shared_ptr<const est::CardinalityEstimator> ml,
    std::shared_ptr<const featurize::Featurizer> featurizer,
    AdaptiveOptions options)
    : base_(std::move(base)),
      ml_(std::move(ml)),
      featurizer_(std::move(featurizer)),
      opts_(options),
      knn_(options.knn),
      residual_(options.residual),
      arbiter_(options.arbiter) {}

AdaptiveEstimator::~AdaptiveEstimator() { Disconnect(); }

void AdaptiveEstimator::ConnectTo(FeedbackBus* bus) {
  Disconnect();
  const uint64_t id =
      bus->Subscribe([this](const FeedbackRecord& r) { IngestFeedback(r); });
  common::MutexLock lock(&mu_);
  bus_ = bus;
  subscription_ = id;
}

void AdaptiveEstimator::Disconnect() {
  FeedbackBus* bus = nullptr;
  uint64_t id = 0;
  {
    common::MutexLock lock(&mu_);
    bus = bus_;
    id = subscription_;
    bus_ = nullptr;
    subscription_ = 0;
  }
  // Unsubscribe outside mu_: it blocks on in-flight IngestFeedback calls,
  // which take mu_ themselves (lock order: never bus lock under mu_).
  if (bus != nullptr) bus->Unsubscribe(id);
}

void AdaptiveEstimator::TrackServingVersion(
    const serve::ServingEstimator* serving) {
  common::MutexLock lock(&mu_);
  tracked_serving_ = serving;
  last_serving_version_ = serving != nullptr ? serving->ActiveVersion() : 0;
}

uint64_t AdaptiveEstimator::ingested() const {
  common::MutexLock lock(&mu_);
  return ingested_;
}

void AdaptiveEstimator::IngestFeedback(const FeedbackRecord& record) {
  const uint64_t fss = record.fss != 0
                           ? record.fss
                           : serve::FeatureSpaceHash(record.query);
  const double truth = std::max(record.true_card, 1.0);

  // A hot-swapped ML model invalidates its predecessor's q-error history:
  // reset the arbiter's ML windows so the fresh model re-earns (or
  // re-loses) the route on its own feedback.
  {
    common::MutexLock lock(&mu_);
    ++ingested_;
    if (tracked_serving_ != nullptr) {
      const uint64_t version = tracked_serving_->ActiveVersion();
      if (version != last_serving_version_) {
        last_serving_version_ = version;
        arbiter_.ResetTier(est::ServedTier::kMl);
      }
    }
  }

  // Counterfactual scoring BEFORE learning: grade each tier on what it
  // would have answered had this query been served, so no tier is scored
  // on feedback it already absorbed.
  const common::StatusOr<double> base_est = base_->EstimateCard(record.query);
  if (base_est.ok()) {
    const double corrected = residual_.Correct(fss, base_est.value());
    arbiter_.ObserveTier(fss, est::ServedTier::kHistogramResidual,
                         ml::QError(truth, corrected));
  }
  std::vector<float> features = record.features;
  if (features.empty()) {
    const common::StatusOr<std::vector<float>> computed =
        featurizer_->Featurize(record.query);
    if (computed.ok()) features = computed.value();
  }
  if (!features.empty()) {
    const std::optional<double> knn_log = knn_.PredictLog(fss, features);
    if (knn_log.has_value()) {
      arbiter_.ObserveTier(
          fss, est::ServedTier::kKnn,
          ml::QError(truth, ml::LabelToCard(static_cast<float>(
                                *knn_log))));
    }
  }
  const common::StatusOr<double> ml_est = ml_->EstimateCard(record.query);
  if (ml_est.ok()) {
    arbiter_.ObserveTier(fss, est::ServedTier::kMl,
                         ml::QError(truth, ml_est.value()));
  }

  // Learn.
  if (base_est.ok()) residual_.Observe(fss, base_est.value(), truth);
  if (!features.empty()) {
    knn_.Observe(fss, features, std::log2(truth));
  }

  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global()
        .GaugeNamed("adapt.routes")
        ->Set(static_cast<int64_t>(knn_.RouteCount()));
    obs::MetricsRegistry::Global()
        .GaugeNamed("adapt.knn.neighbors")
        ->Set(static_cast<int64_t>(knn_.TotalNeighbors()));
  }
}

AdaptiveEstimator::TierPick AdaptiveEstimator::PickTier(uint64_t fss) const {
  TierPick pick;
  switch (opts_.mode) {
    case AdaptiveMode::kOff:
      pick.tier = est::ServedTier::kMl;
      pick.reason = "adaptive off, ml passthrough";
      return pick;
    case AdaptiveMode::kResidualOnly:
      pick.tier = est::ServedTier::kHistogramResidual;
      pick.reason = "forced residual tier";
      return pick;
    case AdaptiveMode::kKnnOnly:
      if (knn_.NeighborCount(fss) > 0) {
        pick.tier = est::ServedTier::kKnn;
        pick.reason = "forced knn tier";
      } else {
        pick.tier = est::ServedTier::kMl;
        pick.reason = "knn empty, fell back to ml";
      }
      return pick;
    case AdaptiveMode::kAuto:
      break;
  }
  const TierArbiter::Decision decision = arbiter_.Choose(fss);
  pick.tier = decision.tier;
  pick.reason = decision.reason;
  if (pick.tier == est::ServedTier::kKnn && knn_.NeighborCount(fss) == 0) {
    pick.tier = est::ServedTier::kMl;
    pick.reason = "knn chosen but empty, fell back to ml";
  }
  return pick;
}

common::StatusOr<std::vector<est::EstimateResponse>>
AdaptiveEstimator::EstimateRequests(
    common::Gathered<est::EstimateRequest> requests) const {
  obs::TraceSpan span("adapt.predict");
  obs::ScopedTimer timer("adapt.predict_seconds");
  const size_t n = requests.size();
  std::vector<est::EstimateResponse> responses(n);
  std::vector<uint64_t> fss(n);
  std::array<uint64_t, kNumTiers> picked{};
  for (size_t i = 0; i < n; ++i) {
    fss[i] = requests[i].route_hint != 0
                 ? requests[i].route_hint
                 : serve::FeatureSpaceHash(requests[i].query);
    TierPick pick = PickTier(fss[i]);
    ++picked[static_cast<size_t>(pick.tier)];
    responses[i].tier = pick.tier;
    responses[i].tier_reason = std::move(pick.reason);
  }
  if (obs::MetricsEnabled()) {
    for (size_t t = 0; t < kNumTiers; ++t) {
      if (picked[t] == 0) continue;
      PredictionsCounter(static_cast<est::ServedTier>(t))->Add(picked[t]);
    }
  }

  // Cheap tiers inline. Stop at the first failure: the serial loop would
  // have returned it before reaching any later request.
  common::Status inline_error = common::Status::Ok();
  std::vector<size_t> ml_rows;
  for (size_t i = 0; i < n && inline_error.ok(); ++i) {
    const query::Query& q = requests[i].query;
    switch (responses[i].tier) {
      case est::ServedTier::kHistogramResidual: {
        const common::StatusOr<double> base = base_->EstimateCard(q);
        if (!base.ok()) {
          inline_error = base.status();
        } else {
          responses[i].estimate = residual_.Correct(fss[i], base.value());
        }
        continue;
      }
      case est::ServedTier::kKnn: {
        const common::StatusOr<std::vector<float>> features =
            featurizer_->Featurize(q);
        if (!features.ok()) {
          inline_error = features.status();
          continue;
        }
        const std::optional<double> log =
            knn_.PredictLog(fss[i], features.value());
        if (log.has_value()) {
          responses[i].estimate = ml::LabelToCard(static_cast<float>(*log));
          continue;
        }
        break;  // raced to empty; the heavy path answers
      }
      case est::ServedTier::kMl:
      case est::ServedTier::kNone:
        break;
    }
    ml_rows.push_back(i);
  }

  // The heavy path, one batch over the callers' own queries. Every ML row
  // precedes the first inline failure, so an ML error is the smallest
  // failing index.
  if (!ml_rows.empty()) {
    std::vector<const query::Query*> ml_queries(ml_rows.size());
    for (size_t k = 0; k < ml_rows.size(); ++k) {
      ml_queries[k] = &requests[ml_rows[k]].query;
    }
    QFCARD_ASSIGN_OR_RETURN(
        const std::vector<double> estimates,
        ml_->EstimateBatch(std::span<const query::Query* const>(ml_queries)));
    for (size_t k = 0; k < ml_rows.size(); ++k) {
      responses[ml_rows[k]].estimate = estimates[k];
    }
  }
  QFCARD_RETURN_IF_ERROR(inline_error);
  const double elapsed = timer.Seconds();
  for (est::EstimateResponse& response : responses) {
    response.latency_seconds = elapsed;
  }
  return responses;
}

common::StatusOr<double> AdaptiveEstimator::EstimateCard(
    const query::Query& q) const {
  std::vector<est::EstimateRequest> requests(1);
  requests[0].query = q;
  QFCARD_ASSIGN_OR_RETURN(const std::vector<est::EstimateResponse> responses,
                          EstimateRequests(requests));
  return responses.front().estimate;
}

common::Status AdaptiveEstimator::Train(
    const std::vector<query::Query>& queries, const std::vector<double>& cards,
    double valid_fraction, uint64_t seed) {
  (void)queries;
  (void)cards;
  (void)valid_fraction;
  (void)seed;
  return common::Status::FailedPrecondition(
      "adaptive estimator: learns online from the feedback bus; train the "
      "underlying ML path instead");
}

std::string AdaptiveEstimator::name() const {
  return std::string("adaptive[") + AdaptiveModeName(opts_.mode) +
         "](base=" + base_->name() + ",ml=" + ml_->name() + ")";
}

size_t AdaptiveEstimator::SizeBytes() const {
  return knn_.SizeBytes() + base_->SizeBytes() + ml_->SizeBytes();
}

est::EstimatorInfo AdaptiveEstimatorInfo() {
  est::EstimatorInfo info;
  info.name = "adaptive";
  info.kind = "adaptive";
  info.needs_training = false;   // learns online instead
  info.supports_joins = false;   // single-table fronts (the stock wiring)
  info.supports_disjunctions = true;
  info.group_aware = false;
  info.learns_online = true;
  return info;
}

}  // namespace qfcard::adapt
