#include "adapt/feedback_bus.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/exec_feedback.h"
#include "serve/fss.h"

namespace qfcard::adapt {

FeedbackBus::FeedbackBus(FeedbackBusOptions options)
    : ring_(options.capacity) {}

uint64_t FeedbackBus::Subscribe(Subscriber fn) {
  common::MutexLock lock(&subscribers_mu_);
  const uint64_t id = next_subscriber_id_++;
  subscribers_.emplace_back(id, std::move(fn));
  return id;
}

void FeedbackBus::Unsubscribe(uint64_t id) {
  // Taking subscribers_mu_ waits out any fan-out in progress, so after this
  // returns the removed subscriber can never be invoked again.
  common::MutexLock lock(&subscribers_mu_);
  subscribers_.erase(
      std::remove_if(subscribers_.begin(), subscribers_.end(),
                     [id](const auto& entry) { return entry.first == id; }),
      subscribers_.end());
}

void FeedbackBus::Publish(FeedbackRecord record) {
  obs::TraceSpan span("adapt.feedback");
  if (record.fss == 0) record.fss = serve::FeatureSpaceHash(record.query);
  record.true_card = std::max(record.true_card, 1.0);
  record.log_card = std::log2(record.true_card);

  // Holding subscribers_mu_ across append + fan-out serializes publishes:
  // subscribers always see records in sequence order, which is what makes a
  // fixed feedback order reproduce identical learner state (the repo's
  // byte-identical determinism contract, docs/adaptive.md).
  common::MutexLock sub_lock(&subscribers_mu_);
  bool dropped = false;
  {
    common::MutexLock lock(&mu_);
    record.sequence = ring_.pushed() + 1;
    dropped = ring_.Push(record).has_value();
  }
  obs::IncrementCounter("adapt.feedback.published");
  if (dropped) obs::IncrementCounter("adapt.feedback.dropped");
  for (const auto& [id, subscriber] : subscribers_) {
    (void)id;
    subscriber(record);
  }
}

uint64_t FeedbackBus::published() const {
  common::MutexLock lock(&mu_);
  return ring_.pushed();
}

uint64_t FeedbackBus::dropped() const {
  common::MutexLock lock(&mu_);
  return ring_.pushed() - ring_.size();
}

size_t FeedbackBus::size() const {
  common::MutexLock lock(&mu_);
  return ring_.size();
}

size_t FeedbackBus::capacity() const {
  common::MutexLock lock(&mu_);
  return ring_.capacity();
}

std::vector<FeedbackRecord> FeedbackBus::Snapshot() const {
  common::MutexLock lock(&mu_);
  return ring_.Snapshot();
}

ExecutionFeedbackConnection::ExecutionFeedbackConnection(FeedbackBus* bus) {
  query::SetExecutionFeedbackHook(
      [bus](const query::Query& q, double true_card) {
        FeedbackRecord record;
        record.query = q;
        record.true_card = true_card;
        bus->Publish(std::move(record));
      });
}

ExecutionFeedbackConnection::~ExecutionFeedbackConnection() {
  query::SetExecutionFeedbackHook({});
}

}  // namespace qfcard::adapt
