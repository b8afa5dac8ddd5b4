#ifndef QFCARD_QUERY_EXEC_FEEDBACK_H_
#define QFCARD_QUERY_EXEC_FEEDBACK_H_

#include <functional>

#include "query/query.h"

namespace qfcard::query {

/// Process-wide execution-feedback hook (docs/adaptive.md): when installed,
/// the executed counts report (query, true cardinality) through it, giving
/// the online-learning subsystem one ingestion point without the executors
/// knowing anything above their layer. The publishers are
/// query::Executor::Count (which is also query::JoinExecutor::Count of a
/// one-table query) and opt::ExecutePlan. JoinExecutor::Count of a join does
/// not publish: workload::LabelOnCatalog runs it in parallel. The hook must
/// be fast and const-thread-safe: executors run on worker threads, and
/// labeling workloads (workload::LabelOnTable, LabelOnCatalog) execute
/// counts in parallel, so a hook that needs a fixed feedback order should
/// only be installed around serially-executed traffic (the CLI truth checks,
/// the drift-stream bench ticks) — adapt::ExecutionFeedbackConnection does
/// exactly that.
using ExecutionFeedbackHook = std::function<void(const Query& q,
                                                 double true_card)>;

/// Installs (or, with an empty function, removes) the hook. Not intended to
/// be raced with in-flight executions of the *previous* hook: swap while the
/// engine is quiescent. Thread-safe against concurrent PublishExecutionFeedback.
void SetExecutionFeedbackHook(ExecutionFeedbackHook hook);

/// True when a hook is currently installed (cheap, lock-free).
bool ExecutionFeedbackHookInstalled();

/// Invokes the installed hook with one executed count; no-op when none is
/// installed. Called by the executors after every successful Count.
void PublishExecutionFeedback(const Query& q, double true_card);

}  // namespace qfcard::query

#endif  // QFCARD_QUERY_EXEC_FEEDBACK_H_
