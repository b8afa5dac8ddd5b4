// Tests for the obs stage-tracing layer (docs/observability.md): RAII span
// nesting and the per-thread parent chain, ring-buffer overflow keeping the
// newest spans, id stability across Reset + identical reruns (the property
// that makes "span 17" meaningful in a reproducer), End() idempotence, and
// gating when tracing is off.

#include "obs/trace.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/clock.h"

namespace qfcard::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTraceEnabled(true);
    TraceBuffer::Global().Reset();
  }
  void TearDown() override {
    SetTraceEnabled(false);
    TraceBuffer::Global().Reset();
  }
};

// Runs a fixed two-level workload; returns nothing — the buffer holds the
// result. Spans record at End (innermost first).
void RunNestedWorkload() {
  TraceSpan outer("estimate.batch");
  {
    TraceSpan inner("featurize.batch");
    TraceSpan innermost("featurize.partition");
  }
  TraceSpan sibling("estimate.predict");
}

TEST_F(TraceTest, NestedSpansLinkParentIds) {
  RunNestedWorkload();
  const std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Completion order: innermost, inner, sibling, outer.
  const SpanRecord& innermost = spans[0];
  const SpanRecord& inner = spans[1];
  const SpanRecord& sibling = spans[2];
  const SpanRecord& outer = spans[3];
  EXPECT_EQ(innermost.name, "featurize.partition");
  EXPECT_EQ(inner.name, "featurize.batch");
  EXPECT_EQ(sibling.name, "estimate.predict");
  EXPECT_EQ(outer.name, "estimate.batch");
  EXPECT_EQ(outer.parent_id, 0u);  // root
  EXPECT_EQ(inner.parent_id, outer.id);
  EXPECT_EQ(innermost.parent_id, inner.id);
  // The sibling opened after `inner` closed, so it parents under outer
  // again — the chain pops correctly.
  EXPECT_EQ(sibling.parent_id, outer.id);
  for (const SpanRecord& s : spans) {
    EXPECT_GE(s.start_s, 0.0);
    EXPECT_GE(s.duration_s, 0.0);
  }
  // Nested spans start no earlier than their parent.
  EXPECT_GE(inner.start_s, outer.start_s);
  EXPECT_GE(innermost.start_s, inner.start_s);
}

TEST_F(TraceTest, IdsAreStableAcrossResetAndIdenticalRerun) {
  RunNestedWorkload();
  const std::vector<SpanRecord> first = TraceBuffer::Global().Snapshot();
  TraceBuffer::Global().Reset();
  RunNestedWorkload();
  const std::vector<SpanRecord> second = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].parent_id, second[i].parent_id);
    EXPECT_EQ(first[i].name, second[i].name);
  }
  // The sequence restarts at 1: the outermost span (opened first, closed
  // last) carries id 1 in both runs.
  EXPECT_EQ(first.back().id, 1u);
}

TEST_F(TraceTest, OverflowKeepsTheNewestSpans) {
  TraceBuffer::Global().ResetWithCapacity(4);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span(i % 2 == 0 ? "even" : "odd");
  }
  TraceBuffer& buffer = TraceBuffer::Global();
  EXPECT_EQ(buffer.Recorded(), 10u);
  EXPECT_EQ(buffer.Dropped(), 6u);
  const std::vector<SpanRecord> spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // The survivors are the last four spans (ids 7..10), oldest first.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, 7u + i);
  }
  TraceBuffer::Global().ResetWithCapacity(4096);
}

TEST_F(TraceTest, EndIsIdempotentAndEnablesEarlyDump) {
  TraceSpan span("cli.main");
  span.End();
  span.End();  // no double record
  {
    // After End, new spans must be roots again (the chain was popped).
    TraceSpan next("after");
    EXPECT_NE(next.id(), span.id());
  }
  const std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "cli.main");
  EXPECT_EQ(spans[1].name, "after");
  EXPECT_EQ(spans[1].parent_id, 0u);
}  // span's destructor runs here and must not record a third entry

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  SetTraceEnabled(false);
  {
    TraceSpan span("ghost");
    EXPECT_EQ(span.id(), 0u);
  }
  EXPECT_EQ(TraceBuffer::Global().Recorded(), 0u);
  EXPECT_TRUE(TraceBuffer::Global().Snapshot().empty());
}

TEST_F(TraceTest, ThreadsHaveIndependentParentChains) {
  TraceSpan main_span("main.root");
  std::thread worker([] {
    // A span on another thread is a root: the parent chain is per-thread,
    // so it must NOT parent under main.root.
    TraceSpan span("worker.root");
  });
  worker.join();
  main_span.End();
  const std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "worker.root");
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[1].name, "main.root");
  EXPECT_EQ(spans[1].parent_id, 0u);
}

// ---------------------------------------------------------------------------
// Request-scoped context propagation (docs/observability.md)
// ---------------------------------------------------------------------------

TEST_F(TraceTest, RootSpanStartsItsOwnTrace) {
  TraceSpan root("serve.submit");
  const TraceContext ctx = root.context();
  EXPECT_EQ(ctx.trace_id, root.id());  // trace id IS the root span id
  EXPECT_EQ(ctx.parent_span_id, root.id());
  EXPECT_TRUE(ctx.valid());
  // The thread-local context tracks the innermost open span.
  EXPECT_EQ(CurrentTraceContext().trace_id, root.id());
  EXPECT_EQ(CurrentTraceContext().parent_span_id, root.id());
  {
    TraceSpan child("featurize.batch");
    EXPECT_EQ(child.context().trace_id, root.id());  // inherits the trace
    EXPECT_EQ(CurrentTraceContext().parent_span_id, child.id());
  }
  root.End();
  EXPECT_EQ(CurrentTraceContext().trace_id, 0u);
  const std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].trace_id, spans[1].trace_id);
}

TEST_F(TraceTest, ReattachCrossesThreadBoundary) {
  TraceContext handoff;
  uint64_t submit_id = 0;
  {
    TraceSpan submit("serve.submit");
    submit_id = submit.id();
    handoff = submit.context();
  }
  // The worker re-attaches: its span parents under the submit span and
  // joins the same trace, and spans it opens nest under it as usual —
  // exactly the serve.submit -> serve.batch handoff.
  std::thread worker([handoff] {
    TraceSpan batch("serve.batch", handoff);
    TraceSpan inner("estimate.batch");
    (void)inner;
  });
  worker.join();
  const std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 3u);  // submit, inner, batch (completion order)
  const SpanRecord& submit = spans[0];
  const SpanRecord& inner = spans[1];
  const SpanRecord& batch = spans[2];
  EXPECT_EQ(batch.parent_id, submit_id);
  EXPECT_EQ(batch.trace_id, submit.trace_id);
  EXPECT_EQ(inner.parent_id, batch.id);
  EXPECT_EQ(inner.trace_id, submit.trace_id);
  // Different threads recorded the two halves.
  EXPECT_NE(batch.thread_index, submit.thread_index);
}

TEST_F(TraceTest, ReattachRestoresTheLocalChain) {
  TraceSpan local("outer");
  {
    // Re-attaching to a foreign context must not disturb this thread's
    // chain once the span closes.
    TraceSpan foreign("serve.batch", TraceContext{999u, 999u});
    EXPECT_EQ(foreign.context().trace_id, 999u);
  }
  TraceSpan sibling("sibling");
  EXPECT_EQ(sibling.context().trace_id, local.context().trace_id);
  sibling.End();
  local.End();
  const std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent_id, spans[2].id);  // sibling under outer
}

TEST_F(TraceTest, LinksErrorAndRouteAreRecorded) {
  {
    TraceSpan span("serve.batch");
    span.AddLink(7);
    span.AddLink(9);
    span.AddLink(span.context().trace_id);  // own trace: ignored
    span.AddLink(0);                        // invalid: ignored
    span.MarkError();
    span.SetRoute(0xabcdu);
  }
  const std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].links, (std::vector<uint64_t>{7, 9}));
  EXPECT_TRUE(spans[0].error);
  EXPECT_EQ(spans[0].route, 0xabcdu);
}

TEST_F(TraceTest, RecordSpanAndTraceRootCloseOutARequest) {
  const uint64_t trace = MintTraceId();
  ASSERT_NE(trace, 0u);
  const TraceContext ctx{trace, trace};
  const Clock::time_point t0 = Now();
  const Clock::time_point t1 = Now();
  const uint64_t wait_id = RecordSpan("serve.queue_wait", ctx, t0, t1, 42u);
  EXPECT_NE(wait_id, 0u);
  RecordTraceRoot("serve.request", trace, t0, Now(), 42u, /*error=*/false);
  const std::vector<SpanRecord> spans = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& wait = spans[0];
  const SpanRecord& root = spans[1];
  EXPECT_EQ(wait.id, wait_id);
  EXPECT_EQ(wait.parent_id, trace);
  EXPECT_EQ(wait.trace_id, trace);
  EXPECT_EQ(wait.route, 42u);
  EXPECT_EQ(root.id, trace);      // the minted id becomes the root span
  EXPECT_EQ(root.parent_id, 0u);  // a genuine root
  EXPECT_EQ(root.trace_id, trace);
  EXPECT_GE(root.duration_s, wait.duration_s);
}

TEST_F(TraceTest, DisabledTracingYieldsInvalidContexts) {
  SetTraceEnabled(false);
  EXPECT_EQ(MintTraceId(), 0u);
  EXPECT_FALSE(CurrentTraceContext().valid());
  TraceSpan span("ghost", TraceContext{1, 1});
  EXPECT_FALSE(span.context().valid());
  EXPECT_EQ(RecordSpan("ghost", TraceContext{1, 1}, Now(), Now()), 0u);
  RecordTraceRoot("ghost", 1, Now(), Now(), 0, false);
  EXPECT_EQ(TraceBuffer::Global().Recorded(), 0u);
}

TEST_F(TraceTest, ThreadIndexIsDenseAndStablePerThread) {
  const uint32_t mine = CurrentThreadIndex();
  EXPECT_EQ(CurrentThreadIndex(), mine);  // stable on re-ask
  uint32_t other = mine;
  std::thread worker([&other] { other = CurrentThreadIndex(); });
  worker.join();
  EXPECT_NE(other, mine);
}

// ---------------------------------------------------------------------------
// Tail sampling (keep slow/errored traces out of the eviction path)
// ---------------------------------------------------------------------------

TailSamplingOptions KeepSlowTraces() {
  TailSamplingOptions tail;
  tail.enabled = true;
  tail.latency_threshold_seconds = 0.010;
  return tail;
}

// Records a three-span trace (two children + root) whose root reports a
// synthetic 50ms latency — "slow" against the 10ms keep threshold, while
// incidental spans (every standalone span roots its own trace) stay fast
// and unkept. Returns the trace id.
uint64_t RecordRequestTrace(bool error) {
  const uint64_t trace = MintTraceId();
  const TraceContext ctx{trace, trace};
  const Clock::time_point end = Now();
  const Clock::time_point start = end - std::chrono::milliseconds(50);
  RecordSpan("serve.submit", ctx, start, end);
  RecordSpan("serve.queue_wait", ctx, start, end);
  RecordTraceRoot("serve.request", trace, start, end, 0, error);
  return trace;
}

TEST_F(TraceTest, TailSamplingRescuesKeptTracesFromEviction) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.ResetWithCapacity(4);
  buffer.SetTailSampling(KeepSlowTraces());
  const uint64_t kept = RecordRequestTrace(/*error=*/false);
  EXPECT_EQ(buffer.TailSampledTraces(), 1u);
  // Ring pressure: ten filler spans overwrite everything. The kept trace's
  // spans move to the side store instead of dying.
  for (int i = 0; i < 10; ++i) TraceSpan span("filler");
  const std::vector<SpanRecord> spans = buffer.Snapshot();
  int from_kept_trace = 0;
  for (const SpanRecord& s : spans) {
    if (s.trace_id == kept) ++from_kept_trace;
  }
  EXPECT_EQ(from_kept_trace, 3);  // submit + queue_wait + root all survive
  EXPECT_EQ(buffer.RetainedSpans(), 3u);
  EXPECT_EQ(buffer.TailDroppedSpans(), 0u);
  // Dropped counts only destroyed spans: 13 recorded, 4 in ring, 3 rescued.
  EXPECT_EQ(buffer.Recorded(), 13u);
  EXPECT_EQ(buffer.Dropped(), 6u);
  buffer.SetTailSampling(TailSamplingOptions{});
  buffer.ResetWithCapacity(4096);
}

TEST_F(TraceTest, TailSamplingIgnoresFastCleanTraces) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.ResetWithCapacity(4);
  TailSamplingOptions tail;
  tail.enabled = true;
  tail.latency_threshold_seconds = 1e9;  // nothing is that slow
  buffer.SetTailSampling(tail);
  const uint64_t fast = RecordRequestTrace(/*error=*/false);
  EXPECT_EQ(buffer.TailSampledTraces(), 0u);
  for (int i = 0; i < 10; ++i) TraceSpan span("filler");
  for (const SpanRecord& s : buffer.Snapshot()) {
    EXPECT_NE(s.trace_id, fast);  // evicted like anything else
  }
  EXPECT_EQ(buffer.RetainedSpans(), 0u);
  buffer.SetTailSampling(TailSamplingOptions{});
  buffer.ResetWithCapacity(4096);
}

TEST_F(TraceTest, TailSamplingKeepsErroredTracesRegardlessOfLatency) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.ResetWithCapacity(4);
  TailSamplingOptions tail;
  tail.enabled = true;
  tail.latency_threshold_seconds = 1e9;
  buffer.SetTailSampling(tail);
  const uint64_t errored = RecordRequestTrace(/*error=*/true);
  EXPECT_EQ(buffer.TailSampledTraces(), 1u);
  for (int i = 0; i < 10; ++i) TraceSpan span("filler");
  int survivors = 0;
  for (const SpanRecord& s : buffer.Snapshot()) {
    if (s.trace_id == errored) ++survivors;
  }
  EXPECT_EQ(survivors, 3);
  buffer.SetTailSampling(TailSamplingOptions{});
  buffer.ResetWithCapacity(4096);
}

TEST_F(TraceTest, TailSamplingSideStoreIsBounded) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.ResetWithCapacity(4);
  TailSamplingOptions tail = KeepSlowTraces();
  tail.retained_capacity = 1;  // room to rescue exactly one span
  buffer.SetTailSampling(tail);
  RecordRequestTrace(/*error=*/false);
  for (int i = 0; i < 10; ++i) TraceSpan span("filler");
  EXPECT_EQ(buffer.RetainedSpans(), 1u);
  EXPECT_EQ(buffer.TailDroppedSpans(), 2u);  // the other two were lost
  buffer.SetTailSampling(TailSamplingOptions{});
  buffer.ResetWithCapacity(4096);
}

TEST_F(TraceTest, ResetClearsTailSamplingStateButKeepsThePolicy) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.ResetWithCapacity(4);
  buffer.SetTailSampling(KeepSlowTraces());
  RecordRequestTrace(/*error=*/false);
  for (int i = 0; i < 10; ++i) TraceSpan span("filler");
  EXPECT_GT(buffer.RetainedSpans(), 0u);
  buffer.Reset();
  EXPECT_EQ(buffer.RetainedSpans(), 0u);
  EXPECT_EQ(buffer.TailSampledTraces(), 0u);
  EXPECT_EQ(buffer.TailDroppedSpans(), 0u);
  EXPECT_TRUE(buffer.tail_sampling().enabled);  // policy survives Reset
  buffer.SetTailSampling(TailSamplingOptions{});
  buffer.ResetWithCapacity(4096);
}

// ---------------------------------------------------------------------------
// Stage capture (per-request latency attribution)
// ---------------------------------------------------------------------------

TEST_F(TraceTest, StageCaptureAccumulatesReports) {
  StageCapture capture;
  StageCapture::Report(Stage::kFeaturize, 0.25);
  StageCapture::Report(Stage::kFeaturize, 0.25);
  StageCapture::Report(Stage::kPredict, 1.0);
  EXPECT_DOUBLE_EQ(capture.seconds(Stage::kFeaturize), 0.5);
  EXPECT_DOUBLE_EQ(capture.seconds(Stage::kPredict), 1.0);
}

TEST_F(TraceTest, StageCaptureInnermostWinsAndUnwinds) {
  StageCapture outer;
  {
    StageCapture inner;
    StageCapture::Report(Stage::kPredict, 2.0);
    EXPECT_DOUBLE_EQ(inner.seconds(Stage::kPredict), 2.0);
  }
  EXPECT_DOUBLE_EQ(outer.seconds(Stage::kPredict), 0.0);
  StageCapture::Report(Stage::kPredict, 3.0);  // lands on outer again
  EXPECT_DOUBLE_EQ(outer.seconds(Stage::kPredict), 3.0);
}

TEST_F(TraceTest, StageCaptureReportWithoutCaptureIsANoOp) {
  StageCapture::Report(Stage::kFeaturize, 1.0);  // must not crash
}

// ---------------------------------------------------------------------------
// Exports
// ---------------------------------------------------------------------------

TEST_F(TraceTest, WriteTraceEventJsonEmitsPerfettoLoadableStructure) {
  {
    TraceSpan root("serve.request");
    TraceSpan batch("serve.batch");
    batch.AddLink(root.context().trace_id + 1000);  // dangling link: no flow
    batch.SetRoute(0x1234u);
  }
  const std::string path =
      ::testing::TempDir() + "/trace_events_test.json";
  ASSERT_TRUE(WriteTraceEventJson(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string json = contents.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("route 0x0000000000001234"), std::string::npos);
  // The dangling link resolves to no root span, so no flow events.
  EXPECT_EQ(json.find("\"ph\":\"s\""), std::string::npos);
}

TEST_F(TraceTest, WriteTraceEventJsonEmitsFlowEventsForResolvableLinks) {
  const uint64_t linked = RecordRequestTrace(/*error=*/false);
  {
    TraceSpan batch("serve.batch");
    batch.AddLink(linked);
  }
  const std::string path = ::testing::TempDir() + "/trace_flow_test.json";
  ASSERT_TRUE(WriteTraceEventJson(path));
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string json = contents.str();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

TEST_F(TraceTest, RingEvictionKeepsNewestSpansAndCountsDropped) {
  TraceBuffer& buffer = TraceBuffer::Global();
  buffer.ResetWithCapacity(2);
  RunNestedWorkload();  // 4 spans into capacity 2
  EXPECT_EQ(buffer.capacity(), 2u);
  EXPECT_EQ(buffer.Recorded(), 4u);
  EXPECT_EQ(buffer.Dropped(), 2u);
  // The newest two spans survive, oldest first: sibling, then outer.
  const std::vector<SpanRecord> spans = buffer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "estimate.predict");
  EXPECT_EQ(spans[1].name, "estimate.batch");
  buffer.ResetWithCapacity(4096);
}

}  // namespace
}  // namespace qfcard::obs
