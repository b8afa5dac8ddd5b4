#ifndef QFCARD_ADAPT_FEEDBACK_BUS_H_
#define QFCARD_ADAPT_FEEDBACK_BUS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/ring.h"
#include "common/thread_annotations.h"
#include "query/query.h"

namespace qfcard::adapt {

/// One executed count(*) observation, as published by the plan executor
/// hook (query/exec_feedback.h) or directly by serving code: the query, its
/// feature-space hash, the optional feature vector the publisher already
/// had, and the observed true cardinality in natural and label (log2)
/// space. `sequence` is assigned by the bus in publish order — the
/// determinism anchor: with a fixed publish order every subscriber sees the
/// identical record stream, so the learners' state (and therefore every
/// estimate) is byte-identical at any QFCARD_THREADS.
struct FeedbackRecord {
  query::Query query;
  /// serve::FeatureSpaceHash of the query; Publish computes it when left 0.
  uint64_t fss = 0;
  /// Feature vector under the subscriber's QFT; empty when the publisher
  /// has no featurizer (the executor hook) — subscribers featurize then.
  std::vector<float> features;
  /// Observed true cardinality, clamped to >= 1 by Publish.
  double true_card = 1.0;
  /// ml::CardToLabel space (log2) of true_card; Publish fills it.
  double log_card = 0.0;
  /// Dense publish-order id, assigned by the bus starting at 1.
  uint64_t sequence = 0;
};

struct FeedbackBusOptions {
  /// Ring capacity (clamped to >= 1): the one retained feedback window —
  /// what Snapshot() replays to a late-joining subscriber and what
  /// adapt::Retrainer trains on. Older records are overwritten (counted as
  /// dropped).
  size_t capacity = 1024;
};

/// The one ingestion point of the online-adaptation loop (docs/adaptive.md):
/// a bounded ring of feedback records with synchronous subscriber fan-out.
/// Publish appends to the ring and invokes every subscriber, in
/// subscription order, on the publishing thread — publishes are serialized
/// on the subscriber lock, so the fan-out order always equals the sequence
/// order even with concurrent publishers. Subscribers must be fast and must
/// not call back into the bus (the subscriber lock is held during the
/// call); Unsubscribe blocks until in-flight invocations of the removed
/// subscriber have returned.
///
/// The ring is the system's one feedback window: adapt::Retrainer trains on
/// Snapshot() instead of keeping a copy.
///
/// Exports adapt.feedback.published / adapt.feedback.dropped counters and
/// wraps each fan-out in an adapt.feedback trace span.
class FeedbackBus {
 public:
  explicit FeedbackBus(FeedbackBusOptions options = {});
  FeedbackBus(const FeedbackBus&) = delete;
  FeedbackBus& operator=(const FeedbackBus&) = delete;

  using Subscriber = std::function<void(const FeedbackRecord&)>;

  /// Registers a subscriber; returns an id for Unsubscribe.
  uint64_t Subscribe(Subscriber fn);

  /// Unregisters a subscriber; blocks until any in-flight invocation has
  /// returned, so its captures can be destroyed safely afterward.
  void Unsubscribe(uint64_t id);

  /// Publishes one record: fills fss (when 0), clamps true_card, computes
  /// log_card, assigns the sequence, appends to the ring, and fans out.
  void Publish(FeedbackRecord record);

  /// Records published so far.
  uint64_t published() const;
  /// Records overwritten in the ring (published - retained once full).
  uint64_t dropped() const;
  /// Records currently retained in the ring.
  size_t size() const;
  /// Ring capacity (FeedbackBusOptions::capacity, clamped to >= 1).
  size_t capacity() const;
  /// Ring contents, oldest first.
  std::vector<FeedbackRecord> Snapshot() const;

 private:
  mutable common::Mutex mu_;
  /// pushed() is the published count; pushed() - size() were dropped.
  common::Ring<FeedbackRecord> ring_ QFCARD_GUARDED_BY(mu_);

  /// Serializes fan-outs and guards the registry. Lock order:
  /// subscribers_mu_ -> mu_ (Publish holds subscribers_mu_ across the ring
  /// append and the fan-out; mu_ only for the append itself).
  mutable common::Mutex subscribers_mu_;
  std::vector<std::pair<uint64_t, Subscriber>> subscribers_
      QFCARD_GUARDED_BY(subscribers_mu_);
  uint64_t next_subscriber_id_ QFCARD_GUARDED_BY(subscribers_mu_) = 1;
};

/// RAII connector from the engine's execution-feedback hook to a bus: the
/// constructor installs a query::SetExecutionFeedbackHook that publishes
/// every executed count(*) into `bus`, the destructor removes it. Only one
/// connection should be live at a time (the hook is process-wide). `bus`
/// must outlive the connection.
class ExecutionFeedbackConnection {
 public:
  explicit ExecutionFeedbackConnection(FeedbackBus* bus);
  ~ExecutionFeedbackConnection();
  ExecutionFeedbackConnection(const ExecutionFeedbackConnection&) = delete;
  ExecutionFeedbackConnection& operator=(const ExecutionFeedbackConnection&) =
      delete;
};

}  // namespace qfcard::adapt

#endif  // QFCARD_ADAPT_FEEDBACK_BUS_H_
